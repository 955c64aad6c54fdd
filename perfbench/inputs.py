"""Seeded benchmark inputs: program corpora with closed-form halting sets.

Every program text is written here, not taken from ``cesplit.corpus``, so
the halting set of each program is known to the benchmark independently of
the workbench.  A program is described by a family and its parameters:

    ("all",)         halts on every input
    ("none",)        a well-formed loop, halts on no input
    ("mod", k, r)    halts exactly when x % k == r
    ("below", k)     halts exactly when x < k
    ("from", k)      halts exactly when x >= k
    ("bad", text)    does not parse, so it denotes the empty set

The workbench receives only the corpus file and the indices chosen here.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("enumerate", "split", "diagonalize")

# --- stage budgets and set sizes per workload -------------------------------

# family -> number of programs; the seed draws parameters and the order
ENUMERATE_MIX = {"all": 64, "none": 64, "mod": 128, "below": 64, "from": 128, "bad": 64}
ENUMERATE_STAGES = 1_000_000
# two halt-everywhere programs (the split inputs), three partial halters
# with narrow parameter ranges and one empty set (the HK modulus set)
SPLIT_MIX = {"all": 2, "mod": 1, "below": 1, "from": 1, "none": 1}
SPLIT_RANGES = {"mod": (2, 4), "below": (4, 9), "from": (2, 7)}
SPLIT_FRIEDBERG_STAGES = 1_000_000
SPLIT_HK_STAGES = 300_000
DIAGONALIZE_MIX = {"all": 4, "none": 4, "mod": 8, "below": 4, "from": 8, "bad": 4}
DIAGONALIZE_STAGES = 100_000
DIAGONALIZE_DEPTH = 25

# default parameter ranges [lo, hi): the modulus k, the bound k
RANGES = {"mod": (2, 10), "below": (1, 31), "from": (1, 31)}

# texts that fail to parse: unknown opcode, missing or extra operands, a
# register past the limit, a negative target, a target past the end
_BAD_FORMS = (
    "NOP {n}",
    "INC",
    "DECJZ {r}",
    "INC {r} {r}",
    "INC 99",
    "JMP -{n}",
    "HALT; JMP {far}",
)


def program_text(spec) -> str:
    kind = spec[0]
    if kind == "all":
        return "HALT"
    if kind == "none":
        return "JMP 0"
    if kind == "below":
        k = spec[1]
        # k decrements that exit to HALT when the input runs out early;
        # surviving all k means x >= k and falls into the self-loop at k
        return "; ".join([f"DECJZ 0 {k + 1}"] * k + [f"JMP {k}", "HALT"])
    if kind == "from":
        k = spec[1]
        # running out within k decrements means x < k: exit to the loop
        return "; ".join([f"DECJZ 0 {k + 1}"] * k + ["HALT", f"JMP {k + 1}"])
    if kind == "mod":
        k, r = spec[1], spec[2]
        halt = r + k + 1
        loop = halt + 1
        lines = [f"DECJZ 0 {loop}"] * r
        start = len(lines)
        # the counter hits zero at the top of a k-cycle exactly when
        # x - r is a multiple of k
        lines.append(f"DECJZ 0 {halt}")
        lines.extend([f"DECJZ 0 {loop}"] * (k - 1))
        lines.append(f"JMP {start}")
        lines.append("HALT")
        lines.append(f"JMP {loop}")
        return "; ".join(lines)
    if kind == "bad":
        return spec[1]
    raise ValueError(f"unknown program family {kind!r}")


def halts(spec, x: int) -> bool:
    """Closed-form membership of x in the program's halting set."""
    kind = spec[0]
    if kind == "all":
        return True
    if kind in ("none", "bad"):
        return False
    if kind == "mod":
        return x % spec[1] == spec[2]
    if kind == "below":
        return x < spec[1]
    if kind == "from":
        return x >= spec[1]
    raise ValueError(f"unknown program family {kind!r}")


def _bad(rng: random.Random) -> tuple:
    form = rng.choice(_BAD_FORMS)
    return ("bad", form.format(n=rng.randrange(1, 1000), r=rng.randrange(4),
                               far=rng.randrange(5, 50)))


def _draw(rng: random.Random, counts: dict, ranges: dict = RANGES) -> list:
    """A shuffled corpus with exactly counts[family] members per family."""
    specs = []
    for kind, n in counts.items():
        for _ in range(n):
            if kind == "bad":
                specs.append(_bad(rng))
            elif kind in ("all", "none"):
                specs.append((kind,))
            else:
                k = rng.randrange(*ranges[kind])
                specs.append(("mod", k, rng.randrange(k)) if kind == "mod" else (kind, k))
    rng.shuffle(specs)
    return specs


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's corpus and indices; the same seed gives the same dict."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "enumerate":
        specs = _draw(rng, ENUMERATE_MIX)
        return {"workload": workload, "seed": seed, "programs": specs,
                "stages": ENUMERATE_STAGES}
    if workload == "split":
        specs = _draw(rng, SPLIT_MIX, SPLIT_RANGES)
        dense = [m for m, s in enumerate(specs) if s[0] == "all"]
        empty = [m for m, s in enumerate(specs) if s[0] == "none"]
        return {
            "workload": workload, "seed": seed, "programs": specs,
            "friedberg": {"a": 2 * rng.choice(dense), "stages": SPLIT_FRIEDBERG_STAGES},
            "hk": {"b": 2 * rng.choice(dense), "a": 2 * empty[0],
                   "stages": SPLIT_HK_STAGES},
        }
    if workload == "diagonalize":
        specs = _draw(rng, DIAGONALIZE_MIX)
        return {"workload": workload, "seed": seed, "programs": specs,
                "proc": "hf", "stages": DIAGONALIZE_STAGES,
                "depth": DIAGONALIZE_DEPTH}
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(inputs: dict, directory: Path) -> None:
    """corpus.txt (what the workbench reads) plus inputs.json (what we know)."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "corpus.txt", "w", encoding="utf-8") as fh:
        for spec in inputs["programs"]:
            fh.write(program_text(spec) + "\n")
    with open(directory / "inputs.json", "w", encoding="utf-8") as fh:
        json.dump(inputs, fh, sort_keys=True)
