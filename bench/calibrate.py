"""Fixed reference work that gauges the host's speed, for run.py.

Counts the proper 4-colorings of the cycle C_12 by backtracking: interpreter
start, then recursion over bit masks and small lists, the same kind of work
as chromacount's.  It shares no code with chromacount, so a change to the
program cannot change it.  Exits 1 unless the count is the closed form
(q-1)^n + (-1)^n (q-1).
"""
import sys

N, Q = 12, 4


def count(colors: list[int], i: int) -> int:
    # vertex 0 keeps colour 0; multiply by Q for the other choices
    if i == N:
        return 1 if colors[N - 1] != colors[0] else 0
    forbidden = 1 << colors[i - 1]
    total = 0
    for c in range(Q):
        if not (forbidden >> c) & 1:
            colors[i] = c
            total += count(colors, i + 1)
    return total


if __name__ == "__main__":
    sys.exit(0 if Q * count([0] * N, 1) == (Q - 1) ** N + (Q - 1) else 1)
