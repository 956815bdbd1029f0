"""Seeded corpora, CLI job lists and the expected outputs of every job.

The benchmark hands the program nothing but the JSON game files written
here.  Expected outputs are worked out from the definitions of the three
decompositions, independently of the program's code; outputs that depend
on the greedy cover (which has no cheaper reference) are checked against
the digests recorded in ``digests.json`` instead.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One corpus and the commands run on each of its games.

    ``family`` is ``"middle"`` for the full middle layer C(n, n//2) or
    ``"clustered"`` for a seeded sample of ``size`` coalitions from it.
    ``methods`` are decompose runs: ``"covering"`` (greedy cover),
    ``"covering-full"`` (``--full-code``), ``"covering-file"`` (``--cover``
    with the ``cover --full`` output), ``"taylor-zwicker"``, ``"pairing"``.
    Each method in ``verified`` gets a ``verify`` run on its output and on
    a copy with one seeded part dropped.  ``sizes`` has one ``(n, size)``
    per game (``size`` only matters for clustered families); each length
    gets one ``cover --full n`` job, whose file its games share.
    """

    name: str
    why: str
    family: str
    sizes: tuple[tuple[int, int], ...]
    methods: tuple[str, ...]
    verified: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "greedy-middle",
            "middle layers C(12,6) and C(13,6) through decompose --method covering: the greedy cover is nearly all of the work",
            "middle",
            ((12, 0), (13, 0)),
            ("covering",),
            ("covering",),
        ),
        Workload(
            "big-family",
            "C(14,7) through taylor-zwicker, pairing and covering --full-code, never the greedy cover: load-time validation and clustering dominate",
            "middle",
            ((14, 0),),
            ("taylor-zwicker", "pairing", "covering-full"),
            ("covering-full",),
        ),
        Workload(
            "wide-verify",
            "seeded sparse families at n=18 and 19 (two sharing one code file): exhaustive 2^n verification dominates; full-cube code files and 2^n tables set peak memory",
            "clustered",
            ((18, 48), (19, 40), (19, 40)),
            ("taylor-zwicker", "pairing", "covering-file"),
            ("taylor-zwicker", "pairing", "covering-file"),
        ),
    )
}

# Tiny corpora (n <= 8) with the same shape, for the benchmark's own tests.
SMOKE_SIZES = {
    "greedy-middle": ((6, 0), (7, 0)),
    "big-family": ((8, 0),),
    "wide-verify": ((7, 12), (8, 10), (8, 10)),
}


# ------------------------------------------------------------------ families


def middle_layer(n: int) -> list[int]:
    return [sum(1 << i for i in c) for c in itertools.combinations(range(n), n // 2)]


def clustered_layer_sample(n: int, size: int, rng: random.Random) -> list[int]:
    """``size`` coalitions of the middle layer, grouped around random anchors.

    Each anchor brings up to three neighbours at distance 2 (one player
    swapped), so pairing and covering find real groups.  One layer is an
    antichain, and the fixed size keeps the work per seed nearly constant.
    """
    family: set[int] = set()
    order: list[int] = []

    def add(mask: int) -> None:
        if mask not in family and len(order) < size:
            family.add(mask)
            order.append(mask)

    while len(order) < size:
        anchor = sum(1 << i for i in rng.sample(range(n), n // 2))
        add(anchor)
        inside = [i for i in range(n) if anchor >> i & 1]
        outside = [i for i in range(n) if not anchor >> i & 1]
        for _ in range(3):
            add(anchor ^ (1 << rng.choice(inside)) ^ (1 << rng.choice(outside)))
    return sorted(order)


def players(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def coalition_str(mask: int) -> str:
    return "{" + ", ".join(str(p) for p in players(mask)) + "}"


def game_json(n: int, family: list[int], rng: random.Random) -> str:
    """The game file, with coalitions and players listed in seeded order.

    The program canonicalises both orders, so its outputs depend only on
    the family, never on how the file lists it.
    """
    entries = []
    for mask in family:
        ps = players(mask)
        rng.shuffle(ps)
        entries.append(ps)
    rng.shuffle(entries)
    return json.dumps({"n": n, "maximal_losing": entries})


# ------------------------------------------------------ independent oracles


def _position_xor(mask: int) -> int:
    out, pos = 0, 1
    while mask:
        if mask & 1:
            out ^= pos
        mask >>= 1
        pos += 1
    return out


def full_cover_base(n: int) -> int:
    """Length of the perfect Hamming code the full-cube cover is padded from."""
    return next(b for b in (15, 7, 3, 1) if b <= n)


def full_cover_size(n: int) -> int:
    return 1 << (n - full_cover_base(n).bit_length())


def full_cover_center(n: int, mask: int) -> int:
    """The center a coalition joins in the padded perfect code.

    A coalition whose low ``base`` bits have position-XOR zero is a
    codeword; otherwise flipping the bit at that syndrome's position is the
    only way to reach one, so the nearest center is unique.
    """
    base = full_cover_base(n)
    syndrome = _position_xor(mask & ((1 << base) - 1))
    return mask if syndrome == 0 else mask ^ (1 << (syndrome - 1))


def known_minimum(n: int) -> str:
    if (n + 1) & n == 0:
        return str((1 << n) // (n + 1))
    if n & (n - 1) == 0:
        return str((1 << n) // n)
    return "unknown"


def pairing_parts(family: list[int]) -> int:
    """Part count of the greedy distance-<=3 matching in ascending mask order."""
    matched = [False] * len(family)
    parts = 0
    for i, x in enumerate(family):
        if matched[i]:
            continue
        matched[i] = True
        parts += 1
        for j in range(i + 1, len(family)):
            if not matched[j] and (x ^ family[j]).bit_count() <= 3:
                matched[j] = True
                break
    return parts


def smallest_mismatch(family: list[int], dropped: list[int]) -> int:
    """Smallest coalition that loses in the game but not without ``dropped``.

    With the group ``dropped`` removed, the remaining parts lose exactly on
    subsets of the other family members.  A mismatch is a subset ``s`` of a
    dropped member ``t`` that meets ``t - u`` for every other member ``u``.
    Those sets are closed upwards inside ``t``, so clearing bits of ``t``
    from the top while the condition still holds gives the smallest one.
    """
    gone = set(dropped)
    rest = [u for u in family if u not in gone]
    best = None
    for t in dropped:
        diffs = [t & ~u for u in rest]
        allowed = t
        for i in reversed(range(t.bit_length())):
            bit = 1 << i
            if allowed & bit and all(d & (allowed ^ bit) for d in diffs):
                allowed ^= bit
        best = allowed if best is None else min(best, allowed)
    return best


def part_members(family: list[int], part: dict) -> list[int]:
    """The family members a weighted part rejects: its group."""
    weights, quota = part["weights"], part["quota"]
    return [
        t for t in family
        if sum(w for i, w in enumerate(weights) if t >> i & 1) < quota
    ]


# --------------------------------------------------------------------- jobs


@dataclass
class Job:
    """One CLI invocation and what it must produce.

    ``stdout`` is the exact expected text, or None when only the recorded
    digest can tell (greedy-cover results).  ``output`` is the file the
    command writes.  ``seed_free`` marks jobs whose outputs are the same for
    every seed, so their recorded digests apply to every seed.
    """

    name: str
    kind: str
    argv: list[str]
    exit_code: int = 0
    stdout: str | None = None
    output: Path | None = None
    seed_free: bool = False
    game: str = ""
    method: str = ""
    drop: bool = False


@dataclass
class Game:
    n: int
    family: list[int]
    path: Path


def build_corpus(workload: Workload, seed: int, workdir: Path, smoke: bool = False):
    """Write the seeded game files and return (games, jobs)."""
    workdir.mkdir(parents=True, exist_ok=True)
    sizes = SMOKE_SIZES[workload.name] if smoke else workload.sizes
    games: dict[str, Game] = {}
    jobs: list[Job] = []
    exact = workload.family == "middle"
    for i, (n, size) in enumerate(sizes):
        rng = random.Random(f"{workload.name}:{seed}:{i}")
        if exact:
            family = middle_layer(n)
        else:
            family = clustered_layer_sample(n, size, rng)
        key = f"g{i}-n{n}"
        path = workdir / f"game-{key}.json"
        path.write_text(game_json(n, family, rng))
        games[key] = Game(n, family, path)
        code = workdir / f"code-n{n}.json"
        if all(m != n for m, _ in sizes[:i]):
            jobs.append(_cover_job(n, code))
        jobs.extend(_game_jobs(workload, key, games[key], code, workdir, exact))
    return games, jobs


def _cover_job(n: int, code: Path) -> Job:
    """One ``cover --full n`` per length; games of that length share its file."""
    return Job(
        f"cover-n{n}",
        "cover",
        ["cover", "--full", str(n), "--output", str(code)],
        stdout=(
            f"centers: {full_cover_size(n)}\n"
            f"known-minimum: {known_minimum(n)}\n"
            f"log-upper-bound: {(math.log(n + 1) + 1) * (1 << n) / (n + 1):.2f}\n"
        ),
        output=code,
        seed_free=True,
    )


def _report(parts: int, bound: int, note: str) -> str:
    return f"parts: {parts}\nbound: {bound} ({note})\n"


def _game_jobs(workload: Workload, key: str, game: Game, code: Path, workdir: Path, exact: bool):
    n, family = game.n, game.family
    for method in workload.methods:
        out = workdir / f"dec-{method}-{key}.json"
        cli_method = "covering" if method.startswith("covering") else method
        argv = ["decompose", str(game.path), "--method", cli_method]
        # The greedy cover has no independent reference: its stdout and
        # file are checked against the recorded digests alone.
        stdout = None
        if method == "taylor-zwicker":
            stdout = _report(len(family), len(family), "maximal losing coalitions")
        elif method == "pairing":
            parts = pairing_parts(family)
            stdout = _report(parts, parts, "pairs plus singletons")
        elif method != "covering":
            argv += ["--full-code"] if method == "covering-full" else ["--cover", str(code)]
            parts = len({full_cover_center(n, t) for t in family})
            stdout = _report(parts, full_cover_size(n), "cover size")
        yield Job(
            f"decompose-{method}-{key}",
            "decompose",
            argv + ["--output", str(out)],
            stdout=stdout,
            output=out,
            seed_free=exact,
            game=key,
            method=method,
        )
    for method in workload.verified:
        dec = workdir / f"dec-{method}-{key}.json"
        yield Job(
            f"verify-{method}-{key}",
            "verify",
            ["verify", str(game.path), str(dec)],
            stdout=f"EQUIVALENT ({1 << n} coalitions checked)\n",
            seed_free=exact,
            game=key,
            method=method,
        )
        # The dropped copy and its expected MISMATCH line are filled in once
        # the decomposition it is cut from has been written and checked.
        yield Job(
            f"verify-dropped-{method}-{key}",
            "verify",
            ["verify", str(game.path), str(workdir / f"dropped-{method}-{key}.json")],
            exit_code=3,
            game=key,
            method=method,
            drop=True,
        )


def write_dropped_copy(job: Job, games: dict[str, Game], dec_text: str, seed: int) -> None:
    """Write the decomposition minus one seeded part; set the expected line."""
    game = games[job.game]
    dec = json.loads(dec_text)
    if len(dec["parts"]) < 2:
        raise ValueError(f"{job.name}: a one-part decomposition has no part to drop")
    rng = random.Random(f"drop:{seed}:{job.name}")
    index = rng.randrange(len(dec["parts"]))
    part = dec["parts"].pop(index)
    dec["part_count"] = len(dec["parts"])
    Path(job.argv[-1]).write_text(json.dumps(dec, indent=2) + "\n")
    mismatch = smallest_mismatch(game.family, part_members(game.family, part))
    job.stdout = (
        f"MISMATCH at {coalition_str(mismatch)}: game=losing, decomposition=winning\n"
    )
