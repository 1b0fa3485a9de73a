"""Seeded inputs and output checks for the benchmark workloads.

A workload is an endless sequence of rounds; a round is a list of CLI
commands (ops).  Round 0 is the fixed core of a (workload, seed) pair: the
traced run executes exactly round 0, the stdout digest covers round 0, and
the input properties are measured on it.  The untraced run keeps starting
rounds until its measured time reaches ``--seconds``.  The harness clears
the program's caches between rounds, so every round starts cold even when
a small pool of inputs has to be reused.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import jsonschema

Round = list["Op"]

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Op:
    """One CLI command; ``ns`` are the n it covers (the rows, for a table)."""

    kind: str
    argv: tuple[str, ...]
    ns: tuple[int, ...]

    @property
    def units(self) -> int:
        """Work units the op counts for in throughput: rows for a table, else 1."""
        return len(self.ns) if self.kind == "table" else 1


def is_tame(n: int) -> bool:
    """Tameness from its definition (3 does not divide n, or n = 12 mod 27)."""
    return n % 3 != 0 or n % 27 == 12


def closed_form_display(inv) -> bool:
    """True when the printed period is the square-free closed form.

    That is the case 3 not dividing n with Delta square-free, or n = 12 mod 27
    with Delta/27 square-free; every other tame n goes through the O(f)
    numeric matching of the period subgroup.
    """
    dec = inv.decomposition
    n = inv.n
    if n % 3 != 0:
        return dec.e == 1 and dec.c == 1
    return n % 27 == 12 and dec.e == 1 and dec.c == 3


# --- period-table ---------------------------------------------------------


def _mirror(n: int) -> int:
    """n -> -n-3 gives the same field L_n, hence the same work and columns."""
    return -n - 3


def period_table(rng: random.Random, size: str, api) -> Iterator[Round]:
    """``table --jobs 1`` (md) over a window of consecutive n, in chunks.

    The seed shifts the window by zero or one chunk and picks whether the
    first round is the window or its mirror image; rounds then alternate.
    Every seed times the same chunks but one, and both shifts hold the same
    O(f) rows: the next one, n = 691, would add an eighth to the work.
    """
    length, chunk = (650, 25) if size == "full" else (40, 10)
    lo = 1 + chunk * rng.randrange(2)
    spans = [(a, a + chunk - 1) for a in range(lo, lo + length, chunk)]
    mirrored = [(_mirror(b), _mirror(a)) for a, b in spans]
    passes = [spans, mirrored] if rng.random() < 0.5 else [mirrored, spans]
    for r in itertools.count():
        yield [
            Op("table",
               ("table", "--from", str(a), "--to", str(b), "--jobs", "1"),
               tuple(n for n in range(a, b + 1) if is_tame(n)))
            for a, b in passes[r % 2]
        ]


# --- exact-sweep ----------------------------------------------------------


def exact_sweep(rng: random.Random, size: str, api) -> Iterator[Round]:
    """``nib n --format json`` on every tame n with |n| <= bound, in seeded order.

    Each round covers the whole range, so every run times the same commands
    and its tail comes from the program, not from which n a seed drew.
    """
    bound = 1200 if size == "full" else 20
    pool = [n for n in range(-bound, bound + 1) if is_tame(n)]
    while True:
        rng.shuffle(pool)
        yield [Op("nib-json", ("nib", str(n), "--format", "json"), (n,)) for n in pool]


# --- verify-oracle --------------------------------------------------------


def _cycle_draws(rng: random.Random, pool: list[int]) -> Iterator[int]:
    """Draw from ``pool`` without replacement, reshuffling when it runs out."""
    pool = list(pool)
    while True:
        rng.shuffle(pool)
        yield from pool


def verify_oracle(rng: random.Random, size: str, api) -> Iterator[Round]:
    """Alternating ``verify n`` and ``gaussian n --verify`` on mid-size conductors.

    Candidates are the tame n with |n| <= scan whose conductor lies in
    [edges[0], edges[-1]), found with the public ``conductor`` before timing.
    They are split into strata by conductor bucket and by display path
    (closed form or O(f) matching).  A round takes two fresh n from every
    stratum, one per command, so every seed does comparable work.
    """
    if size == "full":
        scan, edges = 1500, (1000, 2000, 4000, 8000, 12000, 20001)
    else:
        scan, edges = 40, (60, 200, 700)
    strata: dict[tuple[int, bool], list[int]] = {}
    for n in range(-scan, scan + 1):
        if not is_tame(n):
            continue
        inv = api.conductor(n)
        f = inv.conductor
        if not edges[0] <= f < edges[-1]:
            continue
        bucket = next(i for i in range(len(edges) - 1) if f < edges[i + 1])
        strata.setdefault((bucket, closed_form_display(inv)), []).append(n)
    draws = [_cycle_draws(rng, pool) for _, pool in sorted(strata.items()) if len(pool) >= 2]
    if not draws:
        raise RuntimeError("verify-oracle: no stratum has two candidates")
    while True:
        ops = []
        for draw in draws:
            a, b = next(draw), next(draw)
            ops.append(Op("verify", ("verify", str(a)), (a,)))
            ops.append(Op("gaussian-verify", ("gaussian", str(b), "--verify"), (b,)))
        rng.shuffle(ops)
        yield ops


# --- large-n --------------------------------------------------------------

TRIAL_LIMIT = 10**6
LARGE_N = (10**10, 10**11)
# Slot classes of a 16-op large-n round: 0 = Delta_n needs no Pollard rho,
# 1/2/3 = rho finds its first split within 2000 / 10000 / more iterations.
# 98 of 300 uniform draws need rho (5 of 16); their iteration counts split
# 39/36/23, hence 2/2/1 slots.
RHO_BOUNDS = (2000, 10000)
SLOT_CLASSES = (1, 0, 0, 2, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 0)


def _primes_1_mod_3(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(7, limit + 1, 3) if sieve[p]]


def _is_probable_prime(m: int) -> bool:
    """Miller-Rabin on the first twelve primes (deterministic below 3.3e24)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m < 2:
        return False
    for p in bases:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def rho_class(n: int, primes: list[int]) -> int:
    """The slot class of n (see ``SLOT_CLASSES``).

    Delta_n needs Pollard rho iff it has at least two prime factors (with
    multiplicity) above the program's trial-division limit; odd primes of
    Delta_n are 3 or 1 mod 3, which is all that ``primes`` has to cover.
    The class then counts the iterations of the program's rho (Floyd
    cycle, x0 = 2, x -> x^2 + 1) until its first split of the cofactor.
    """
    m = n * n + 3 * n + 9
    while m % 3 == 0:
        m //= 3
    for p in primes:
        if p * p > m:
            break
        while m % p == 0:
            m //= p
    if m <= TRIAL_LIMIT or _is_probable_prime(m):
        return 0
    x = y = 2
    for i in range(RHO_BOUNDS[-1]):
        x = (x * x + 1) % m
        y = (y * y + 1) % m
        y = (y * y + 1) % m
        if math.gcd(x - y, m) != 1:
            return 1 if i < RHO_BOUNDS[0] else 2
    return 3


def large_n(rng: random.Random, size: str, api) -> Iterator[Round]:
    """Alternating ``analyze n`` (any n) and ``nib n --format json`` (tame n)
    on n drawn uniformly from [10^10, 10^11).

    Rho inputs cost up to ten times the rest, so each round fills its slots
    by class (``SLOT_CLASSES``) in their natural shares, and every seed sees
    the same mix.
    """
    classes = SLOT_CLASSES if size == "full" else (0, 0)
    primes = _primes_1_mod_3(TRIAL_LIMIT)
    while True:
        ops = []
        for i, wanted in enumerate(classes):
            while True:
                n = rng.randrange(*LARGE_N)
                if (i % 2 == 0 or is_tame(n)) and rho_class(n, primes) == wanted:
                    break
            if i % 2 == 0:
                ops.append(Op("analyze", ("analyze", str(n)), (n,)))
            else:
                ops.append(Op("nib-json", ("nib", str(n), "--format", "json"), (n,)))
        yield ops


WORKLOADS: dict[str, Callable[..., Iterator[Round]]] = {
    "period-table": period_table,
    "exact-sweep": exact_sweep,
    "verify-oracle": verify_oracle,
    "large-n": large_n,
}


def rounds(workload: str, seed: int, size: str, api) -> Iterator[Round]:
    """The seeded round sequence of one workload.  ``api`` is the
    ``simplest_cubic`` package, used only to select verify-oracle inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, size, api)


# --- output checks --------------------------------------------------------


def _golden_rows(root: Path) -> dict[int, str]:
    rows: dict[int, str] = {}
    for name in ("table1_full.md", "table2.md"):
        for line in (root / "tests" / "golden" / name).read_text().splitlines():
            cells = line.split("|")
            if len(cells) > 2 and cells[1].strip().lstrip("-").isdigit():
                rows[int(cells[1])] = line
    return rows


class Checker:
    """Checks each op's exit code and stdout; returns the failed unit count.

    A command seen before must print exactly what it printed then, and is
    not checked again.  Table rows are compared byte for byte with the
    golden tables where those have the row, and the row of the mirror
    n' = -n-3 must show the same Delta, f and minimal polynomial.
    """

    def __init__(self, root: Path):
        self.golden = _golden_rows(root)
        schema_path = root / "src" / "simplest_cubic" / "schema" / "output_record.schema.json"
        schema = json.loads(schema_path.read_text())
        self.validator = jsonschema.validators.validator_for(schema)(schema)
        self._fields: dict[int, tuple[int, list[str]]] = {}
        self._seen: dict[tuple[str, ...], bytes] = {}
        self.messages: list[str] = []

    def failures(self, op: Op, rc: int, out: str, err: str) -> int:
        if rc != 0 or err:
            self._fail(op, f"exit {rc}, stderr {err.strip()[:200]!r}")
            return op.units
        digest = hashlib.blake2b(out.encode(), digest_size=16).digest()
        if op.argv in self._seen:
            if self._seen[op.argv] == digest:
                return 0
            self._fail(op, "output differs from an earlier run of the same command")
            return op.units
        self._seen[op.argv] = digest
        check = getattr(self, "_check_" + op.kind.replace("-", "_"))
        if op.kind == "table":
            return check(op, out)
        try:
            problem = check(op.ns[0], out)
        except (ValueError, KeyError, IndexError, TypeError, jsonschema.ValidationError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self._fail(op, problem)
            return 1
        return 0

    def _fail(self, op: Op, problem: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(f"{' '.join(op.argv)}: {problem}")

    def _check_table(self, op: Op, out: str) -> int:
        lines = out.splitlines()
        if lines[:1] != ["| n | Δ | f | gaussian period | minimal polynomial |"]:
            self._fail(op, "missing table header")
            return op.units
        body = lines[2:]
        bad = abs(len(body) - len(op.ns))
        for n, line in zip(op.ns, body):
            cells = line.split(" | ")
            problem = None
            if len(cells) != 5 or cells[0] != f"| {n}":
                problem = f"row for n={n} malformed: {line!r}"
            elif n in self.golden and line != self.golden[n]:
                problem = f"row for n={n} differs from the golden row"
            else:
                problem = self._same_field(n, cells)
            if problem:
                self._fail(op, problem)
                bad += 1
        return bad

    def _same_field(self, n: int, cells: list[str]) -> str | None:
        seen_n, seen = self._fields.setdefault(min(n, _mirror(n)), (n, cells))
        if seen_n != n and [seen[i] for i in (1, 2, 4)] != [cells[i] for i in (1, 2, 4)]:
            return f"rows for n={n} and its mirror {seen_n} disagree on Δ, f or polynomial"
        return None

    def _check_nib_json(self, n: int, out: str) -> str | None:
        record = json.loads(out)
        self.validator.validate(record)
        if record["n"] != n or not record["tame"]:
            return "record is not the tame record of n"
        if record["delta"]["value"] != n * n + 3 * n + 9:
            return "delta is not n^2+3n+9"
        if record["discriminant"] != record["conductor"]["value"] ** 2:
            return "discriminant is not conductor^2"
        if len(record["generators"]) != 6:
            return "not six generators"
        return None

    def _check_analyze(self, n: int, out: str) -> str | None:
        lines = out.splitlines()
        if lines[0] != f"n={n}" or not lines[1].startswith(f"Δ={n * n + 3 * n + 9}"):
            return "n or Δ line wrong"
        if (lines[-1] == "tame=true") != is_tame(n):
            return "tameness line wrong"
        return None

    def _check_verify(self, n: int, out: str) -> str | None:
        lines = out.splitlines()
        if lines[0] != f"n={n}" or not lines[1].endswith("all checks pass"):
            return "generator checks did not pass"
        if not lines[2].endswith(" disc=conductor^2 pass"):
            return "integral basis check did not pass"
        if not lines[3].startswith("numeric gaussian oracle: pass "):
            return "numeric oracle did not pass"
        return None

    def _check_gaussian_verify(self, n: int, out: str) -> str | None:
        lines = out.splitlines()
        if not lines[0].startswith(f"n={n} f="):
            return "header line wrong"
        if not lines[-1].startswith("verify=pass "):
            return "numeric oracle did not pass"
        return None
