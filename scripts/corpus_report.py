#!/usr/bin/env python3
"""Run the prime-ideal corpus through tropical_variety and report the size
of each homogenized ideal's Gröbner fan, the variety's cells, weights and
balancing, and the seconds spent in tropical_variety and is_balanced (the
Gröbner fan is counted outside that window)."""

import time

from tropfan.corpus import PRIME_CORPUS
from tropfan.cycles import is_balanced
from tropfan.fans import fan_dim
from tropfan.groebner import groebner_fan
from tropfan.polynomials import homogenize
from tropfan.tropical import tropical_variety


def main():
    header = (f"{'ideal':14s} {'vars':>4s} {'gf cones':>8s} {'cells':>5s} "
              f"{'dim':>3s} {'weights':20s} {'balanced':>8s} {'secs':>6s}")
    print(header)
    print("-" * len(header))
    total = 0.0
    for entry in PRIME_CORPUS:
        spec = entry.ideal()
        gf_size = len(groebner_fan(homogenize(spec)))
        t0 = time.monotonic()
        cycle = tropical_variety(spec)
        balanced = is_balanced(cycle)
        elapsed = time.monotonic() - t0
        total += elapsed
        weights = ",".join(str(m) for m in cycle.multiplicities)
        print(f"{entry.name:14s} {len(entry.variables):>4d} {gf_size:>8d} "
              f"{len(cycle.fan.maximal_cones):>5d} {fan_dim(cycle.fan):>3d} "
              f"{weights:20s} {str(balanced):>8s} {elapsed:>6.2f}")
    print(f"\ntotal: {total:.2f}s over {len(PRIME_CORPUS)} ideals")


if __name__ == "__main__":
    main()
