"""Set-up time of one workload in a fresh interpreter: importing gammares,
building specs and samplers, and one warm-up op.  Prints the seconds.

    python3 perfbench/setup_probe.py ray_resum
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import bootstrap  # noqa: E402


def main():
    name = sys.argv[1]
    bootstrap.prepare()
    import gammares
    import workloads

    bootstrap.check_import(gammares)
    workload = workloads.WORKLOADS[name]
    workload.execute(workload.warmup)
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()
