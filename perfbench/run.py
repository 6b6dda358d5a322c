#!/usr/bin/env python3
"""End-to-end benchmark of limitlab's check, learn and adversary requests.

    python3 perfbench/run.py --workload check|learn|sessions --seed N \
        --seconds S --trace 0|1

One client sends a seeded deck of requests to ``limitlab.cli.main(argv)``
in this process, one at a time, with stdout captured, and repeats whole
rounds of the deck for about S seconds (a round starts only if it would
end nearer S than stopping does) and for at least 100 requests.  A first,
untimed round checks each output against the reference model in
``reference.py``; every output must have the same digest in every round.
Requests that raise out of ``main`` or exit with a configuration error
are counted as failed and listed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds
alternate and it carries the per-layer metrics of one traced round.
Details go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Every run compiles the benchmark and limitlab from source and writes no
# bytecode, whatever __pycache__ directories the checkout holds and whatever
# PYTHONDONTWRITEBYTECODE says: set-ups that loaded cached bytecode took half
# the time of set-ups that compiled, so set-up time depended on whether an
# earlier run had left bytecode behind.
sys.dont_write_bytecode = True
sys.pycache_prefix = str(Path(__file__).resolve().parent / "results" / "no-bytecode")

import decks
import reference as ref
import tracer as tracing
from stats import percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

WORKLOADS = tuple(decks.BY_WORKLOAD)
MODULES = ("coding", "hypospace", "textkit", "learnkit", "criteria", "canonical",
           "adversary", "cli")
SETUP_REPEATS = 15
MIN_REQUESTS = 100
OK_EXITS = (0, 1, 3)  # confirmed/definitive, refuted, inconclusive

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("coding.decode_list.calls", "count"), ("coding.decode_list.self_s", "s"),
    ("coding.unpair.calls", "count"), ("coding.unpair.self_s", "s"),
    ("coding.max_index_bits", "bits"),
    ("hypospace.descriptor.calls", "count"), ("hypospace.descriptor.self_s", "s"),
    ("hypospace.decodes_per_descriptor", "ratio"),
    ("hypospace.decide.calls", "count"), ("hypospace.decide.self_s", "s"),
    ("hypospace.enumerate.calls", "count"), ("hypospace.enumerate.self_s", "s"),
    ("hypospace.is_exact.calls", "count"), ("hypospace.member.calls", "count"),
    ("hypospace.lang_equal.calls", "count"), ("hypospace.lang_equal.self_s", "s"),
    ("hypospace.register.calls", "count"),
    ("textkit.prefix.items", "count"), ("textkit.prefix.self_s", "s"),
    ("textkit.content.items", "count"), ("textkit.content.self_s", "s"),
    ("learnkit.run.calls", "count"), ("learnkit.run.self_s", "s"),
    ("learnkit.learner_calls", "count"), ("learnkit.learner.self_s", "s"),
    ("criteria.check_smon.self_s", "s"), ("criteria.check_mon.self_s", "s"),
    ("criteria.check_ex.self_s", "s"), ("criteria.check_bc.self_s", "s"),
    ("criteria.decides_per_check", "ratio"),
    ("adversary.coolsep.self_s", "s"), ("adversary.gsmon.self_s", "s"),
    ("adversary.totalpsd.self_s", "s"), ("adversary.sd.self_s", "s"),
    ("cli.main.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


M_MMAP_THRESHOLD = -3  # the mallopt parameter in glibc's malloc.h

# Median time of probe() on the host the README's figures come from, in a
# calm spell.  Request times are scaled to a host of that speed.
PROBE_REFERENCE_S = 0.0023
PROBE_ITEMS = tuple(range(0, 120, 3))


class SetupError(Exception):
    pass


def fix_mmap_threshold() -> None:
    """Keep glibc's mmap threshold at its starting value, 128 KiB.

    glibc raises the threshold each time a large block is freed; blocks
    below it then come from the heap, which keeps its pages after they are
    freed.  Peak resident memory then depended on the blocks freed before
    the costliest request, and `learn` peaked at 39 MB or at 44 MB from one
    run to the next.  With the threshold fixed, every block of 128 KiB or
    more goes back to the system when it is freed.  Other C libraries are
    left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def import_limitlab() -> dict:
    """Import limitlab afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n.split(".")[0] == "limitlab"]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"limitlab.{name}") for name in MODULES}
    where = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"limitlab was imported from {where}, not from {SRC}")
    return modules


def request(cli, argv) -> tuple[int | None, str, BaseException | None, float]:
    """One request: (exit code, stdout, exception raised, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc, fault = cli.main(list(argv)), None
        except Exception as exc:  # a fault of the program under test
            rc, fault = None, exc
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), fault, elapsed


def set_up(workload: str, seed: int) -> tuple[float, dict, decks.Deck]:
    """Import, build the deck, write the traces it re-checks and send one
    warm-up request per subcommand."""
    start = time.perf_counter()
    modules = import_limitlab()
    deck = decks.build(workload, seed)
    for argv in [argv for argv, _ in deck.setup] + [decks.WARMUP[workload]]:
        rc, _, fault, _ = request(modules["cli"], argv)
        if fault is not None or rc not in OK_EXITS:
            raise SetupError(f"set-up request {' '.join(argv)} failed: {fault or rc}")
    return time.perf_counter() - start, modules, deck


@contextlib.contextmanager
def unlimited_digits():
    """Lift the int-to-string digit limit while checking an output that
    limitlab managed to print only after a fix; requests never run under
    it, so the limit's fault still shows in them."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def probe() -> float:
    """Seconds that a fixed piece of pure-Python work takes now: list codes
    and Cantor pairing from the reference model, which shares no code with
    limitlab.  It times the host, not the program."""
    start = time.perf_counter()
    code = ref.encode_list(PROBE_ITEMS)
    for _ in range(3):
        ref.decode_list(code)
    _ = {ref.pair(i, i * 7 % 13): ref.unpair(i * 31) for i in range(2000)}
    return time.perf_counter() - start


def max_int_bits(value) -> int:
    """Bit length of the largest int in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return max(map(max_int_bits, value), default=0)
    return value.bit_length() if type(value) is int else 0


class Client:
    """The one client: rounds of one deck, with the checks and tallies
    they feed."""

    def __init__(self, deck: decks.Deck, cli) -> None:
        self.deck = deck
        self.cli = cli
        self.op_latencies: list[list[float]] = [[] for _ in deck.ops]
        self.probes: list[float] = []  # probe() times of the untraced rounds
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.digests: list[str] = []
        self.failures: dict[int, dict] = {}
        self.mismatches: list[str] = []
        self.max_index_bits = 0
        self.round_bytes = 0

    def send(self, i: int, op: decks.Op) -> tuple[str, int | None, str, float, bool]:
        """One request: (outcome digest, exit code, stdout, seconds, failed)."""
        gc.collect()
        rc, out, fault, elapsed = request(self.cli, op.argv)
        if fault is not None or rc not in OK_EXITS:
            error = type(fault).__name__ if fault is not None else f"exit {rc}"
            self.failures.setdefault(i, {"argv": list(op.argv), "error": error,
                                         "known_fault": op.known_fault})
            return f"failed: {error}", rc, out, elapsed, True
        digest = hashlib.sha256(f"{rc}\n{out}".encode("utf-8")).hexdigest()
        return digest, rc, out, elapsed, False

    def expect_digest(self, i: int, op: decks.Op, outcome: str) -> None:
        if len(self.digests) <= i:
            self.digests.append(outcome)
        elif outcome != self.digests[i]:
            self.mismatches.append(f"{describe(op.argv)}: output changed between rounds")

    def round(self, tracer: tracing.Tracer | None = None) -> float:
        """Send every request of the deck once; the seconds they took.
        An untraced round times probe() before each request."""
        spent = 0.0
        self.round_bytes = 0
        for i, op in enumerate(self.deck.ops):
            if tracer is not None:
                tracer.request = f"{self.rounds}:{i}"
            else:
                self.probes.append(probe())
            outcome, _, out, elapsed, failed = self.send(i, op)
            spent += elapsed
            self.attempted += 1
            if failed:
                self.failed += 1
            else:
                if tracer is None:
                    self.op_latencies[i].append(elapsed)
                self.round_bytes += len(out)  # json.dumps writes ASCII
            self.expect_digest(i, op, outcome)
        self.rounds += 1
        return spent

    def verify_round(self) -> None:
        """Send every request once, untimed, and check its output against
        the reference model.  This round comes first and warms the heap for
        the timed rounds, and parsing and checking never pause between
        timed requests."""
        for i, op in enumerate(self.deck.ops):
            outcome, rc, out, _, failed = self.send(i, op)
            self.expect_digest(i, op, outcome)
            if not failed:
                self.verify(op, rc, out)

    def verify(self, op: decks.Op, rc: int, out: str) -> None:
        try:
            with unlimited_digits() if op.known_fault else contextlib.nullcontext():
                payload = json.loads(out)
                op.verify(payload, rc)
                self.max_index_bits = max(self.max_index_bits, max_int_bits(payload))
        except Exception as exc:  # any disagreement, including a malformed output
            self.mismatches.append(f"{describe(op.argv)}: {type(exc).__name__}: {exc}")


def describe(argv) -> str:
    text = " ".join(argv)
    return text if len(text) <= 160 else text[:157] + "..."


def source_digest() -> str:
    """Digest of the program and benchmark sources, naming the outputs a
    given seed must reproduce."""
    h = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(BENCH_DIR.glob("*.py"))):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_against_earlier_runs(client: Client, workload: str, seed: int) -> None:
    """Outputs of a seed must not change from run to run of one program."""
    path = RESULTS / f"digests-{workload}-seed{seed}-{source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        for i, (old, new) in enumerate(zip(earlier, client.digests)):
            if old != new:
                client.mismatches.append(
                    f"{describe(client.deck.ops[i].argv)}: output differs from an earlier run")
    else:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(client.digests), encoding="utf-8")
        os.replace(tmp, path)


def layer_metrics(tracer: tracing.Tracer, rounds: int, client: Client,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer values of one traced round."""
    calls, self_s, items, nested = tracer.calls, tracer.self_s, tracer.items, tracer.nested
    checks = sum(calls[c] for c in tracing.CHECKS)
    values: dict[str, float] = {
        "coding.max_index_bits": client.max_index_bits,
        "hypospace.decodes_per_descriptor":
            nested["hypospace.decodes_under_descriptor"] / calls["hypospace.descriptor"]
            if calls["hypospace.descriptor"] else 0.0,
        "hypospace.register.calls":
            (calls["hypospace.allocate"] + calls["hypospace.bind"]) / rounds,
        "criteria.decides_per_check":
            nested["criteria.decides_under_check"] / checks if checks else 0.0,
        "cli.output_bytes": client.round_bytes,
        "trace.overhead_s": overhead_s,
        "learnkit.learner_calls": calls["learnkit.learner_calls"] / rounds,
    }
    for name, _ in PER_LAYER:
        if name in values:
            continue
        base, _, field = name.rpartition(".")
        table = {"calls": calls, "self_s": self_s, "items": items}[field]
        values[name] = table[base] / rounds
    return values


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, modules, deck = set_up(workload, seed)
        setup_times.append(elapsed)
    client = Client(deck, modules["cli"])
    for argv, check_file in deck.setup:
        try:
            check_file()
        except Exception as exc:  # the saved trace disagrees with the reference
            client.mismatches.append(f"{describe(argv)}: {type(exc).__name__}: {exc}")
    gc.collect()
    gc.freeze()

    client.verify_round()
    # A traced run alternates untraced and traced rounds; the tracer's
    # counts add up over its traced rounds.
    tracer = tracing.Tracer() if traced else None
    plain_s: list[float] = []
    traced_s: list[float] = []
    start = time.perf_counter()
    while True:
        plain_s.append(client.round())
        if tracer is not None:
            tracer.install(modules)
            try:
                traced_s.append(client.round(tracer))
            finally:
                tracer.uninstall()
        # Another round starts only if it would end nearer the deadline
        # than stopping now, so that a run measures S seconds on average.
        elapsed = time.perf_counter() - start
        if (client.attempted >= MIN_REQUESTS
                and elapsed + elapsed / len(plain_s) / 2 >= seconds):
            break
    check_against_earlier_runs(client, workload, seed)

    if tracer is None:
        # Request times are scaled to the host speed at which probe() takes
        # PROBE_REFERENCE_S; see README.md, "Host speed".
        scale = PROBE_REFERENCE_S / statistics.median(client.probes)
        latencies = [t * scale for times in client.op_latencies for t in times]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(latencies) / (sum(plain_s) * scale),
            "op_p50_ms": percentile(latencies, 50) * 1e3,
            "op_p90_ms": percentile(latencies, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    else:
        overhead = statistics.median(traced_s) - statistics.median(plain_s)
        metrics = layer_metrics(tracer, len(traced_s), client, overhead)
        units = dict(PER_LAYER)
        write_json(RESULTS / f"spans-{workload}-seed{seed}.json",
                   {"fields": ["id", "parent", "name", "start", "end", "request"],
                    "spans": tracer.spans})
    result = {
        "correct": not client.mismatches,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    write_json(RESULTS / f"{workload}-seed{seed}-trace{int(traced)}.json", {
        "result": result,
        "rounds": client.rounds,
        "deck_size": len(deck.ops),
        "setup_runs_s": setup_times,
        "untraced_round_s": plain_s,
        "probe_median_s": statistics.median(client.probes) if client.probes else None,
        "traced_round_s": traced_s,
        "failures": list(client.failures.values()),
        "mismatches": client.mismatches,
        "requests": [{"argv": describe(op.argv), "seconds": times}
                     for op, times in zip(deck.ops, client.op_latencies)],
    })
    print(f"{workload} seed {seed}: {client.rounds} rounds of {len(deck.ops)} requests, "
          f"{client.failed} failed, {len(client.mismatches)} mismatches")
    for failure in client.failures.values():
        kind = "known fault" if failure["known_fault"] else "UNEXPECTED"
        print(f"  failed ({kind}, {failure['error']}): {describe(failure['argv'])}")
    for mismatch in client.mismatches[:20]:
        print(f"  mismatch: {mismatch}")
    return result


def write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fix_mmap_threshold()
    if not (SRC / "limitlab").is_dir():
        print(f"error: no limitlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("LIMITLAB_CONFIG", None)
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
