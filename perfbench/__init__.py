"""End-to-end simulator benchmark (see ``perfbench/README.md``)."""
