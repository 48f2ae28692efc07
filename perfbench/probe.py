"""A fixed computation whose time tracks the speed of the machine.

    python3 perfbench/probe.py

It runs in a fresh interpreter, as every op does, and does the kinds of
work the ops do: it imports numpy and scipy, solves dense symmetric
eigenproblems (as the Gauss-Legendre rules do), runs a numpy three-term
recurrence (as the Laguerre tables do) and a pure-Python loop.  It calls no
heisharm code, so a change to the program cannot move its time; only the
machine can.
"""

import numpy as np
import scipy.special  # noqa: F401  (imported by every op)


def main():
    n = 200
    k = np.arange(1, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    jacobi = np.diag(beta, 1) + np.diag(beta, -1)
    nodes = 0.0
    for _ in range(40):
        nodes += np.linalg.eigvalsh(jacobi)[-1]
    x = np.linspace(0.0, 60.0, 150_000)
    p0, p1 = np.ones_like(x), 1.0 - x
    for m in range(1, 80):
        p0, p1 = p1, ((2 * m + 1 - x) * p1 - m * p0) / (m + 1)
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return nodes + float(p1[-1]) + total


if __name__ == "__main__":
    main()
