"""The canonical wall-clock campaign benchmark.

Four fixed workloads run for real through ``ProteomePipeline.run``, one
fresh subprocess per run; eight end-to-end metrics per workload; a
separate traced pass that attributes the time to layers by timing calls
into each layer's public functions from outside.  See ``README.md``.

* ``python -m benchmarks.campaign``             — the full harness;
* ``python -m benchmarks.campaign.compare A B`` — before/after verdicts;
* ``python3 benchmarks/campaign/run.py ...``    — the ``BENCHMARK.json``
  command the driver runs (one workload, one JSON line).
"""
