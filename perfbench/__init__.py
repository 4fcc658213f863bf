"""Repository benchmark: the ``wave``, ``rollout`` and ``faas`` workloads.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md``.
"""
