"""Workloads of the paper's evaluation (Sec. 9.1), as IR queries over
the synthetic datasets:

* ``tpch``   — TPC-H-lite queries (Q1/Q3/Q10/Q15/Q18/Q19 analogues)
* ``crimes`` — C-Q1, C-Q2
* ``movies`` — M-Q1, M-Q2, M-Q3
* ``sof``    — S-Q1, S-Q2, S-Q4, S-Q5

Each module exports ``SCHEMAS``, ``tables_pandas(sf)``, plain queries,
and parameterized ``Template`` objects for the Sec. 9.5 end-to-end
experiments, plus ``SKETCH_ATTRS`` — the safe sketch attributes per
query (PK first, falling back to group-by attributes, the Sec. 9.3
policy), which the tests re-derive through the Sec. 5 safety checker.
"""
