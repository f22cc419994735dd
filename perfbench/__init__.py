"""End-to-end benchmark of the chronus/Slurm stack with a layer-attributed trace.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``.  See ``perfbench/README.md``.
"""
