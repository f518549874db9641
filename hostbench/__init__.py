"""Host-time benchmark of the repro simulator (see ``hostbench/run.py``)."""
