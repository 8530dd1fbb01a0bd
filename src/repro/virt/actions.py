"""Placement change actions.

The controller reconfigures the system by starting, stopping, suspending,
resuming and relocating application instances.  This module defines the
action vocabulary and a helper to diff two placements into raw instance
additions/removals.  Classifying a removal as *stop* versus *suspend* (or
an addition as *boot* versus *resume*) requires workload knowledge (is the
instance a batch job with remaining work?), so that classification is done
by the schedulers, not here.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Mapping, Tuple


class ActionType(enum.Enum):
    """The VM control operations available to the controller (§5)."""

    BOOT = "boot"          #: start a fresh instance on a node
    STOP = "stop"          #: stop an instance (discarding its state)
    SUSPEND = "suspend"    #: suspend a running instance, keeping its state
    RESUME = "resume"      #: resume a suspended instance on the same node
    MIGRATE = "migrate"    #: move a (running or suspended) instance to another node


#: Action types counted as "placement changes" in Experiment Two's Figure 4
#: ("Number of jobs migrated, suspended, and moved and resumed").  Boots of
#: fresh instances are normal dispatch, not reconfiguration churn.
CHANGE_ACTIONS = frozenset({ActionType.SUSPEND, ActionType.RESUME, ActionType.MIGRATE})


Placement = Mapping[str, Mapping[str, int]]


def diff_placements(
    old: Placement, new: Placement
) -> Tuple[List[Tuple[str, str, int]], List[Tuple[str, str, int]]]:
    """Diff two placements into per-(app, node) instance deltas.

    Both placements map ``app_id -> {node_name: instance_count}``.

    Returns ``(removals, additions)``; each entry is
    ``(app_id, node_name, count)`` with ``count > 0``.  Entries are sorted
    for determinism.
    """
    removals: List[Tuple[str, str, int]] = []
    additions: List[Tuple[str, str, int]] = []
    app_ids = set(old) | set(new)
    for app_id in sorted(app_ids):
        old_nodes: Dict[str, int] = dict(old.get(app_id, {}))
        new_nodes: Dict[str, int] = dict(new.get(app_id, {}))
        for node in sorted(set(old_nodes) | set(new_nodes)):
            delta = new_nodes.get(node, 0) - old_nodes.get(node, 0)
            if delta < 0:
                removals.append((app_id, node, -delta))
            elif delta > 0:
                additions.append((app_id, node, delta))
    return removals, additions
