#!/usr/bin/env python
"""Scalability study: speedup vs threads and width (Figs 5–7) on a
modelled machine.

Prints, for one Table V machine model, the speedup-vs-threads lines of
Fig 5 and the max-speedup-vs-width curve of Fig 7 — the same
``repro.reporting`` generators ``repro figure 5 / 7`` print from, which
unroll the paper's 3D benchmark network into its task dependency graph
and schedule it with the discrete-event simulator.

Run:  python examples/scalability_study.py [machine]
      machine in {xeon-8, xeon-18, xeon-40, xeon-phi} (default xeon-18)
"""

import sys

from repro import reporting
from repro.simulate import get_machine


def main() -> None:
    key = sys.argv[1] if len(sys.argv) > 1 else "xeon-18"
    machine = get_machine(key)
    print(f"machine: {machine.name}")
    print(f"  cores={machine.cores} hw-threads={machine.threads} "
          f"max modelled speedup={machine.max_speedup():.1f}\n")

    widths = (5, 10, 20, 40, 80)
    print(reporting.render_table(
        "Fig 5 (3D net, direct convolution): speedup vs worker threads",
        *reporting.figure5(key, 3, widths=widths)))

    print("\nFig 7 (3D): maximal achieved speedup vs network width")
    _, rows = reporting.figure6_7(3, widths=widths, machine_keys=(key,))
    for width, cell in zip(widths, rows[0][1:]):
        bar = "#" * int(round(float(cell)))
        print(f"  width {width:>3}: {cell:>6}  {bar}")

    print("\nObservations (compare Section VIII):")
    print(" - speedup rises ~linearly until threads == cores, then more")
    print("   slowly through the hardware-thread range;")
    print(" - wider networks get closer to the machine's ceiling;")
    print(" - the ceiling is the core count 'or a bit larger'.")


if __name__ == "__main__":
    main()
