#!/usr/bin/env python3
"""End-to-end benchmark of the `wrt` verbs.

Run from the repository root:

    python3 perfbench/run.py --workload tiled_cold --seed 1 --seconds 30 --trace 0

The script builds the `wrt` binary and the `perfbench-trace` helper from
source (into $CARGO_TARGET_DIR, default `.bench_build`), prepares the
workload's inputs from the seed, runs the workload for about `--seconds`,
checks every output against in-process execution, and prints one JSON
object as the last line of stdout.  `--trace 0` reports the end-to-end
metrics named in BENCHMARK.json; `--trace 1` makes a separate traced run and
reports the per-layer metrics.  perfbench/RATIONALE.md says why each
workload and metric was chosen.
"""

import argparse
import itertools
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# tiled_cold: netlist structure is fixed (generation cost varies up to 4x
# across generator seeds); the workload seed drives the pattern stream.
EST_NETLIST = (20000, 1)
SIM_NETLIST = (6000, 42)
SIM_PATTERNS = 512

# registry_flow: the paper's flow on five registry circuits, plus ATPG on
# a search-bound (c6288ish) and a per-call-bound (s2) circuit.
FLOW_CIRCUITS = ["c2670ish", "c5315ish", "c6288ish", "c7552ish", "s2"]
FLOW_PATTERNS = 4096
FLOW_ATPG = [("c6288ish", 30), ("s2", 8)]

# serve_mix: two closed-loop clients; per client and round one cold
# netlist, a few fresh weight vectors, ECO what-ifs, and warm estimates.
SERVE_CIRCUITS = FLOW_CIRCUITS
SERVE_CLIENTS = 2
COLD_POOL = 80
COLD_GATES = 1200
# The pool's netlists are fixed: their cold cost varies several-fold with
# the generator seed.
COLD_SEED_BASE = 1000
# The server's peak RSS is read after this many rounds, so every run
# reports it after the same registry growth.
RSS_ROUND = 10
# Requests per client and round.  The mix is synthetic: no request log of
# `wrt serve` exists.  RATIONALE.md gives the reason for each value.
ROUND_MIX = {"cold": 1, "fresh": 9, "eco": 30, "warm": 260}
WARM_VECTORS = 3
ECO_GATES_PER_CIRCUIT = 8
# The traced run fails when the layer spans cover less of a batch verb.
MIN_COVERAGE = 0.9

# The 2-vCPU host's speed drifts by up to 1.5x in phases that can cover a
# whole run, and then move every time in it alike.  A fixed pure-Python
# loop that shares no code with `wrt` slows down in step, so every time
# metric is reported at the speed where the loop takes PROBE_REF_S; the
# constant only sets the scale (RATIONALE.md, "Noise").
PROBE_REF_S = 0.030
PROBES = []  # the loop's times: before each batch verb, serve round and set-up


def now():
    return time.perf_counter()


def probe():
    start = now()
    x = 0
    for i in range(300_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    PROBES.append(now() - start)


def at_reference_speed(metrics):
    """The time metrics scaled to the reference host speed; `rss_mb` is
    not a time and stays as measured."""
    speed = PROBE_REF_S / statistics.median(PROBES)
    return {name: v if name == "rss_mb" else v * speed for name, v in metrics.items()}, speed


def rel(path):
    return str(path.relative_to(ROOT))


# --------------------------------------------------------------- processes


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "wrt-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/trace/Cargo.toml"],
    ):
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr)
    return target / "release" / "wrt", target / "release" / "perfbench-trace"


class VerbRun:
    """One batch verb: a fresh `wrt` process, timed from spawn to the last
    byte of its stdout."""

    def __init__(self, wrt, kind, argv):
        self.kind = kind
        self.argv = argv
        start = now()
        proc = subprocess.Popen([str(wrt)] + argv, cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out = proc.stdout.read()
        self.latency = now() - start
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.rc = proc.returncode
        self.stdout = out.decode()
        self.stderr = err.decode(errors="replace")
        self.rss_mb = usage.ru_maxrss / 1024.0


def helper(helper_bin, mode, lines):
    proc = subprocess.run([str(helper_bin), mode], cwd=ROOT, check=True,
                          input="".join(line + "\n" for line in lines),
                          capture_output=True, text=True)
    return proc.stdout


def parse_frames(text):
    """Protocol frames (`ok|err <n>` plus n lines) as (tag, payload)."""
    lines = text.split("\n")
    frames, i = [], 0
    while i < len(lines) and lines[i]:
        tag, n = lines[i].split(" ")
        body = lines[i + 1:i + 1 + int(n)]
        frames.append((tag, "".join(line + "\n" for line in body)))
        i += 1 + int(n)
    return frames


def expected_outputs(helper_bin, lines, prime=()):
    """In-process `execute` of each line over one registry, primed first."""
    prime = list(prime)
    frames = parse_frames(helper(helper_bin, "expect", prime + list(lines)))
    return dict(zip(lines, frames[len(prime):]))


def generate(wrt, gates, seed, path):
    subprocess.run([str(wrt), "generate", "--gates", str(gates), "--seed", str(seed),
                    "--out", str(path)], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def warm_up(wrt):
    """The set-up's warm-up exec; returns {circuit: number of inputs}."""
    out = subprocess.run([str(wrt), "workloads"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    return {f[0]: int(f[1]) for f in (line.split() for line in out.splitlines()) if f}


class Server:
    def __init__(self, wrt):
        self.proc = subprocess.Popen([str(wrt), "serve", "--addr", "127.0.0.1:0"], cwd=ROOT,
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        banner = self.proc.stdout.readline().decode()
        m = re.search(r"listening on ([\d.]+):(\d+)", banner)
        if not m:
            self.stop()
            raise RuntimeError(f"wrt serve did not start: {banner!r}")
        self.addr = (m.group(1), int(m.group(2)))

    def peak_rss_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self):
        if self.proc.poll() is None:
            try:
                with Client(self.addr) as c:
                    c.request("shutdown")
                self.proc.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Client:
    """One connection; a request is timed from writing its line to the
    last byte of its response frame."""

    def __init__(self, addr):
        self.sock = socket.create_connection(addr)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def request(self, line):
        start = now()
        self.sock.sendall(line.encode() + b"\n")
        tag, n = self.rfile.readline().decode().split()
        payload = b"".join(self.rfile.readline() for _ in range(int(n)))
        return now() - start, tag, payload.decode()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.rfile.close()
        self.sock.close()


# --------------------------------------------------------------- workloads


class BatchWorkload:
    """A fixed list of cold batch verbs, run round after round."""

    setup_reps = 1

    def __init__(self, wrt, helper_bin, seed):
        self.wrt, self.helper_bin, self.seed = wrt, helper_bin, seed
        self.netlists = []  # (gates, generator seed, path) written in set-up

    def setup(self):
        probe()
        start = now()
        for gates, nseed, path in self.netlists:
            generate(self.wrt, gates, nseed, path)
        warm_up(self.wrt)
        return now() - start

    def run_round(self, setups=None):
        """One pass over the verb list; the round's wall time is its verbs'
        summed latency.  With `setups`, the set-up is repeated after each
        verb: it takes tens of milliseconds, and set-ups taken back to back
        fall in one of the host's speed phases, which would then decide
        the run's setup_s."""
        runs = []
        for kind, argv in self.ops:
            probe()
            runs.append(VerbRun(self.wrt, kind, argv))
            if setups is not None:
                setups.append(self.setup())
        return sum(r.latency for r in runs), runs

    def timed(self, seconds, setups):
        rounds, start = [], now()
        while True:
            rounds.append(self.run_round(setups))
            if now() - start + 0.5 * rounds[-1][0] >= seconds:
                return rounds

    def check(self, runs, failures):
        for run in runs:
            tag, payload = self.expected[" ".join(run.argv)]
            if run.rc != 0 or tag != "ok" or run.stdout != payload:
                failures.append(f"{' '.join(run.argv)}: exit {run.rc}, "
                                f"stdout differs from in-process execute; {run.stderr.strip()}")

    def end_to_end(self, setups, seconds):
        self.prepare_expected()
        rounds = self.timed(seconds, setups)
        failures = list(self.guard())
        for _, runs in rounds:
            self.check(runs, failures)
        lat = [r.latency for _, runs in rounds for r in runs]
        # Each verb's latency is its median over the rounds.  The verbs
        # differ in cost up to 100x, so a median over all samples would sit
        # between two verbs' extreme rounds; the median is taken over the
        # verbs' own medians instead.
        verb = [statistics.median(runs[i].latency for _, runs in rounds)
                for i in range(len(self.ops))]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(w for w, _ in rounds),
            "estimate_s": statistics.median(
                sum(r.latency for r in runs if r.kind == "estimate") for _, runs in rounds),
            "op_p50_ms": 1000 * statistics.median(verb),
            # Every batch verb is cold: a fresh process on a netlist it has
            # not seen.
            "cold_p50_ms": 1000 * statistics.median(verb),
            "rss_mb": statistics.median(max(r.rss_mb for r in runs) for _, runs in rounds),
        }
        summary = (f"{len(rounds)} rounds of {len(self.ops)} cold verbs ({len(lat)} samples); "
                   "verb medians (ms) " + " ".join(f"{1000 * v:.1f}" for v in verb))
        return metrics, summary, len(lat), failures

    def traced(self, seconds):
        _, runs = self.run_round()
        # Each verb is replayed, and executed untraced, in a fresh helper
        # process of its own, as it ran.
        texts = [helper(self.helper_bin, "trace",
                        [f"setup tiled {g} {s}" for g, s, _ in self.netlists])]
        for i, r in enumerate(runs):
            for mode in ("batch", "execute"):
                texts.append(helper(self.helper_bin, "trace",
                                    [f"op{i} {mode} {' '.join(r.argv)}"]))
        trace = Trace(texts)
        failures = list(trace.fails)
        e2e = {}
        for i, r in enumerate(runs):
            e2e[f"op{i}"] = (r.kind, r.latency)
            if r.rc != 0:
                failures.append(f"{' '.join(r.argv)}: exit {r.rc}")
            printed = set(r.stdout.splitlines())
            for line in trace.lines.get(f"op{i}", []):
                if line not in printed:
                    failures.append(f"{' '.join(r.argv)}: replay result `{line}` not in stdout")
            if trace.coverage(f"op{i}") < MIN_COVERAGE:
                failures.append(f"{' '.join(r.argv)}: layer spans cover "
                                f"{trace.coverage(f'op{i}'):.3f} of the replay")
        return trace.layer_metrics(e2e, rounds=1), len(runs), failures

    def guard(self):
        return ()


class TiledCold(BatchWorkload):
    def __init__(self, wrt, helper_bin, seed):
        super().__init__(wrt, helper_bin, seed)
        est, sim = WORK / "tiled_est.bench", WORK / "tiled_sim.bench"
        self.netlists = [(*EST_NETLIST, est), (*SIM_NETLIST, sim)]
        simulate = ["simulate", rel(sim), "--patterns", str(SIM_PATTERNS),
                    "--threads", "2", "--seed", str(seed)]
        self.ops = [("estimate", ["estimate", rel(est)]),
                    ("estimate", ["estimate", rel(sim)]),
                    ("simulate", simulate),
                    ("simulate", simulate + ["--pattern-stripes", "0"])]

    def prepare_expected(self):
        self.expected = expected_outputs(self.helper_bin, [" ".join(a) for _, a in self.ops])


OPT_LINE = re.compile(r"test length: (\S+) -> (\S+)\s+\(factor \S+, (\d+) sweeps")


class RegistryFlow(BatchWorkload):
    def __init__(self, wrt, helper_bin, seed):
        super().__init__(wrt, helper_bin, seed)
        self.head = [("estimate", ["estimate", c]) for c in FLOW_CIRCUITS]
        self.head += [("optimize", ["optimize", c]) for c in FLOW_CIRCUITS]
        self.atpg = [("atpg", ["atpg", c, "--max-evals", str(k)]) for c, k in FLOW_ATPG]
        # Until the optimized weights are known, the list lacks `simulate`.
        self.ops = self.head + self.atpg

    def prepare_expected(self):
        """Computes every reference output; `simulate` runs at the weights
        the reference `optimize` printed."""
        self.expected = expected_outputs(self.helper_bin, [" ".join(a) for _, a in self.ops])
        simulate = []
        for c in FLOW_CIRCUITS:
            _, out = self.expected[f"optimize {c}"]
            weights = out.split("optimized probabilities", 1)[1].splitlines()[1:]
            simulate.append(("simulate", ["simulate", c, "--patterns", str(FLOW_PATTERNS),
                                          "--seed", str(self.seed), "--threads", "2",
                                          "--weights", ",".join(w.split()[1] for w in weights)]))
        self.expected.update(expected_outputs(self.helper_bin,
                                              [" ".join(a) for _, a in simulate]))
        self.ops = self.head + simulate + self.atpg

    def guard(self):
        """Every optimize must run at least one sweep and reach a finite
        test length; otherwise the run would time a no-op."""
        for c in FLOW_CIRCUITS:
            m = OPT_LINE.search(self.expected[f"optimize {c}"][1])
            if not m or int(m.group(3)) < 1 or float(m.group(2)) == float("inf"):
                yield f"optimize {c} is degenerate: {m.group(0) if m else 'no result line'}"

    def traced(self, seconds):
        self.prepare_expected()
        return super().traced(seconds)


class ServeMix:
    """One `wrt serve` child and two closed-loop clients."""

    setup_reps = 2

    def __init__(self, wrt, helper_bin, seed):
        self.wrt, self.helper_bin, self.seed = wrt, helper_bin, seed
        self.server = None
        self.pool = [(COLD_GATES, COLD_SEED_BASE + k, WORK / f"cold_{k}.bench")
                     for k in range(COLD_POOL)]
        inputs = warm_up(wrt)
        rng = random.Random(seed)

        def vector(n):
            return ",".join(f"{rng.uniform(0.05, 0.95):.3f}" for _ in range(n))

        warm = {c: [""] + [f" --weights {vector(inputs[c])}" for _ in range(WARM_VECTORS - 1)]
                for c in SERVE_CIRCUITS}
        self.prime = [f"estimate {c}{w}" for c in SERVE_CIRCUITS for w in warm[c]]
        flips = defaultdict(list)
        for line in helper(helper_bin, "gates", SERVE_CIRCUITS).splitlines():
            c, gate, dual = line.split("\t")
            flips[c].append(f"{gate}={dual}")
        eco = {c: rng.sample(sorted(flips[c]), min(ECO_GATES_PER_CIRCUIT, len(flips[c])))
               for c in SERVE_CIRCUITS}
        # Every round has the same composition (circuits taken in turn, the
        # pool in order), so every run grows the registry alike; the seed
        # decides the order within a round and the weights and gates.
        cold = iter(rel(p) for _, _, p in self.pool)
        turn = itertools.cycle(SERVE_CIRCUITS)
        warm_turn = itertools.cycle([(c, i) for c in SERVE_CIRCUITS for i in range(len(warm[c]))])
        self.plan = []  # plan[round][client] = [(kind, line)]
        for _ in range(COLD_POOL // SERVE_CLIENTS):
            clients = []
            for _ in range(SERVE_CLIENTS):
                reqs = [("cold", f"estimate {next(cold)}")]
                for c in itertools.islice(turn, ROUND_MIX["fresh"]):
                    reqs.append(("fresh", f"estimate {c} --weights {vector(inputs[c])}"))
                for c in itertools.islice(turn, ROUND_MIX["eco"]):
                    reqs.append(("eco", f"eco {c} --set {rng.choice(eco[c])}"))
                for c, i in itertools.islice(warm_turn, ROUND_MIX["warm"]):
                    reqs.append(("warm", f"estimate {c}{warm[c][i]}"))
                rng.shuffle(reqs)
                clients.append(reqs)
            self.plan.append(clients)

    def setup(self):
        """Writes the cold-netlist pool, warms the binary, and spawns and
        primes the server."""
        self.shutdown()
        probe()
        start = now()
        for gates, nseed, path in self.pool:
            generate(self.wrt, gates, nseed, path)
        warm_up(self.wrt)
        self.server = Server(self.wrt)
        with Client(self.server.addr) as c:
            for line in self.prime:
                _, tag, payload = c.request(line)
                if tag != "ok":
                    raise RuntimeError(f"priming `{line}` failed: {payload}")
        return now() - start

    def shutdown(self):
        if self.server:
            self.server.stop()
            self.server = None

    def timed(self, seconds):
        """Runs whole rounds until `seconds` are (about) used; each round
        is both clients' request lists, bounded by a barrier."""
        barrier = threading.Barrier(SERVE_CLIENTS + 1)
        stop = threading.Event()
        results = [[[] for _ in range(SERVE_CLIENTS)] for _ in self.plan]
        errors = []

        def client(ci):
            try:
                with Client(self.server.addr) as c:
                    for r, clients in enumerate(self.plan):
                        barrier.wait()
                        if stop.is_set():
                            return
                        for kind, line in clients[ci]:
                            results[r][ci].append((kind, line, *c.request(line)))
                        barrier.wait()
            except (OSError, ValueError, threading.BrokenBarrierError) as e:
                errors.append(e)
                barrier.abort()

        threads = [threading.Thread(target=client, args=(ci,)) for ci in range(SERVE_CLIENTS)]
        for t in threads:
            t.start()
        walls, start, rss = [], now(), None
        try:
            for _ in self.plan:
                if walls and now() - start + 0.5 * walls[-1] >= seconds:
                    break
                probe()  # the clients wait at the barrier
                round_start = now()
                barrier.wait()
                barrier.wait()
                walls.append(now() - round_start)
                if len(walls) == RSS_ROUND:
                    rss = self.server.peak_rss_mb()
            if len(walls) < len(self.plan):
                stop.set()
                barrier.wait()
        except threading.BrokenBarrierError:
            pass
        for t in threads:
            t.join()
        if errors:
            raise RuntimeError(f"client failed: {errors[0]!r}")
        if rss is None:
            rss = self.server.peak_rss_mb()
        self.shutdown()
        return walls, [results[r] for r in range(len(walls))], rss

    def end_to_end(self, setups, seconds):
        walls, rounds, rss = self.timed(seconds)
        # As many set-ups again after the timed phase: set-ups taken back
        # to back fall in one of the host's speed phases, which would then
        # decide the run's setup_s.
        setups += [self.setup() for _ in range(self.setup_reps)]
        self.shutdown()
        reqs =[q for clients in rounds for reqs in clients for q in reqs]
        expected = expected_outputs(self.helper_bin, sorted({q[1] for q in reqs}), self.prime)
        failures = [f"`{line}`: {tag} frame differs from in-process execute"
                    for _, line, _, tag, payload in reqs
                    if (tag, payload) != expected[line]]

        def lat(kinds):
            return [q[2] for q in reqs if q[0] in kinds]

        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "estimate_s": statistics.median(
                sum(q[2] for reqs in clients for q in reqs if q[0] != "eco")
                for clients in rounds),
            "op_p50_ms": 1000 * statistics.median(lat(ROUND_MIX)),
            "cold_p50_ms": 1000 * statistics.median(lat({"cold"})),
            "rss_mb": rss,
        }
        # Each kind's share of the clients' busy time: how much weight the
        # mix gives each path in wall_s.
        busy = sum(lat(ROUND_MIX))
        shares = " ".join(
            f"{kind} {len(lat({kind}))} x {1000 * statistics.median(lat({kind})):.2f} ms "
            f"= {sum(lat({kind})) / busy:.1%}" for kind in ROUND_MIX)
        summary = (f"{len(walls)} rounds, {len(reqs)} requests from {SERVE_CLIENTS} "
                   f"closed-loop clients; {shares}")
        return metrics, summary, len(reqs), failures

    def traced(self, seconds):
        # A third of the run's time: the replay costs twice the requests.
        walls, rounds, _ = self.timed(seconds / 3)
        reqs = [q for clients in rounds for reqs in clients for q in reqs]
        used = {q[1] for q in reqs}
        lines = [f"setup tiled {g} {s}" for g, s, p in self.pool if f"estimate {rel(p)}" in used]
        lines += [f"prime prime {line}" for line in self.prime]
        lines += [f"q{i} served {q[1]}" for i, q in enumerate(reqs)]
        trace = Trace([helper(self.helper_bin, "trace", lines)])
        failures = list(trace.fails)
        failures += [f"`{q[1]}`: err frame" for q in reqs if q[3] != "ok"]
        e2e = {f"q{i}": ("request", q[2]) for i, q in enumerate(reqs)}
        return trace.layer_metrics(e2e, rounds=len(walls)), len(reqs), failures


# --------------------------------------------------------------- tracing


class Trace:
    """The spans, counters, result lines and failures of one or more
    helper processes."""

    def __init__(self, texts):
        self.spans = {}  # "process:id" -> (req, parent key or -, name, start ns, end ns)
        self.counts = defaultdict(float)
        self.lines = defaultdict(list)
        self.fails = []
        rows = [(k, row.split("\t")) for k, text in enumerate(texts) for row in text.splitlines()]
        for k, f in rows:
            if f[0] == "span":
                parent = "-" if f[3] == "-" else f"{k}:{f[3]}"
                self.spans[f"{k}:{f[2]}"] = (f[1], parent, f[4], int(f[5]), int(f[6]))
            elif f[0] == "count":
                self.counts[f[2]] += float(f[3])
            elif f[0] == "line":
                self.lines[f[1]].append(f[2])
            elif f[0] == "fail":
                self.fails.append(f"replay {f[1]}: {f[2]}")
        covered = defaultdict(int)  # ns of each span its children cover
        for _, parent, _, start, end in self.spans.values():
            if parent != "-":
                covered[parent] += end - start
        # Self time: a span's duration minus what its child spans cover.
        self.self_ns = {sid: s[4] - s[3] - covered[sid] for sid, s in self.spans.items()}
        self.covered = covered
        self.roots = {s[0]: sid for sid, s in self.spans.items()
                      if s[1] == "-" and s[2] in ROOT_SPANS}

    def self_s(self, name):
        return sum(self.self_ns[sid] for sid, s in self.spans.items() if s[2] == name) / 1e9

    def coverage(self, req):
        """The share of a request's root span its layer spans cover."""
        sid = self.roots[req]
        return self.covered[sid] / (self.spans[sid][4] - self.spans[sid][3])

    def layer_metrics(self, e2e, rounds):
        """Per-layer metrics per round; `e2e` maps a request id to its
        (verb, end-to-end latency) from the same run."""
        def per_round(x):
            return x / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        execute = {s[0]: (s[4] - s[3]) / 1e9 for s in self.spans.values()
                   if s[2] == "serve.execute"}
        # Coverage: the layer spans' share of each replayed verb's wall.
        # Overhead: the replay against the untraced in-process `execute`.
        verb_cover, verb_wall = defaultdict(float), defaultdict(float)
        untraced = 0.0
        for req, (verb, _) in e2e.items():
            sid = self.roots[req]
            verb_cover[verb] += self.covered[sid] / 1e9
            verb_wall[verb] += (self.spans[sid][4] - self.spans[sid][3]) / 1e9
            untraced += execute[req]
        coverage = {v: ratio(verb_cover[v], verb_wall[v]) for v in verb_wall}
        m = {
            "circuit.parse_s": per_round(self.self_s("circuit.parse")),
            "circuit.gates": per_round(c["circuit.gates"]),
            "workloads.tiled_s": self.self_s("workloads.tiled"),
            "workloads.by_name_s": per_round(self.self_s("workloads.by_name")),
            "fault.checkpoints_s": per_round(self.self_s("fault.checkpoints")),
            "fault.collapse_s": per_round(self.self_s("fault.collapse")),
            "fault.collapse_removed": per_round(c["fault.collapse_removed"]),
            "estimate.constant_lines_s": per_round(self.self_s("estimate.constant_lines")),
            "estimate.constant_lines_proven": per_round(c["estimate.constant_lines_proven"]),
            "estimate.constant_lines_yield": ratio(c["estimate.constant_lines_proven"],
                                                   c["estimate.constant_lines_examined"]),
            "estimate.cop_baseline_s": per_round(self.self_s("estimate.cop_baseline")),
            "estimate.cop_baseline_evals": per_round(c["estimate.cop_baseline_evals"]),
            "estimate.dprob_s": per_round(self.self_s("estimate.dprob")),
            "estimate.render_s": per_round(self.self_s("estimate.render")),
            "estimate.incremental_evals": per_round(c["estimate.incremental_evals"]),
            "estimate.incremental_rebuilds": per_round(c["estimate.incremental_rebuilds"]),
            "estimate.eco_s": per_round(self.self_s("estimate.eco")),
            "estimate.eco_overlay_evals": per_round(c["estimate.eco_overlay_evals"]),
            "core.optimize_s": per_round(self.self_s("core.optimize")),
            "core.engine_calls": per_round(c["core.engine_calls"]),
            "core.sweeps": per_round(c["core.sweeps"]),
            "sim.coverage_s": per_round(self.self_s("sim.coverage")),
            "sim.gate_evals": per_round(c["sim.gate_evals"]),
            "sim.dieout_rate": ratio(c["sim.frontier_deaths"], c["sim.excited"]),
            "sim.tiled_s": per_round(self.self_s("sim.tiled")),
            "sim.tiled_probe_share": ratio(c["sim.tiled_probe_evals"], c["sim.tiled_evals"]),
            "sim.tiled_batch_faults": per_round(c["sim.tiled_batch_faults"]),
            "atpg.generate_s": per_round(self.self_s("atpg.generate")),
            "atpg.podem_calls": per_round(c["atpg.podem_calls"]),
            "atpg.backtracks": per_round(c["atpg.backtracks"]),
            "atpg.tests": per_round(c["atpg.tests"]),
            "serve.resolve_s": per_round(self.self_s("serve.resolve")),
            "serve.first_touch_s": per_round(self.self_s("serve.first_touch")),
            "serve.baseline_s": per_round(self.self_s("serve.baseline")),
            "serve.baseline_hit_ratio": ratio(
                c["serve.baseline_hits"], c["serve.baseline_hits"] + c["serve.baseline_misses"]),
            "serve.execute_ms": 1000 * statistics.median(execute[r] for r in e2e),
            "serve.wire_ms": 1000 * statistics.median(lat - execute[r]
                                                      for r, (_, lat) in e2e.items()),
            "serve.registry_baselines": c["serve.registry_baselines"],
            "trace.coverage": min(coverage.values()),
            "trace.overhead": ratio(sum(verb_wall.values()), untraced) - 1,
        }
        for verb in ("estimate", "simulate", "optimize", "atpg", "request"):
            m[f"trace.coverage.{verb}"] = coverage.get(verb, 0.0)
        return m


ROOT_SPANS = ("serve.request", "verb.estimate", "verb.simulate", "verb.optimize", "verb.atpg")

WORKLOADS = {"tiled_cold": TiledCold, "registry_flow": RegistryFlow, "serve_mix": ServeMix}


# --------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "Cargo.toml").is_file() or not spec_path.is_file():
        sys.exit("perfbench: run from a checkout of the wrt repository")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    wrt, helper_bin = build()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    workload = None
    try:
        workload = WORKLOADS[args.workload](wrt, helper_bin, args.seed)
        if args.trace:
            workload.setup()
            metrics, attempted, failures = workload.traced(args.seconds)
            summary = "traced run"
        else:
            setups = [workload.setup() for _ in range(workload.setup_reps)]
            raw, summary, attempted, failures = workload.end_to_end(setups, args.seconds)
            metrics, speed = at_reference_speed(raw)
            summary += ("; as measured " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items())
                        + f"; probe median {statistics.median(PROBES) * 1000:.2f} ms "
                        f"over {len(PROBES)}, scale {speed:.3f}")
    finally:
        if isinstance(workload, ServeMix):
            workload.shutdown()
        shutil.rmtree(WORK, ignore_errors=True)

    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {summary}; {len(failures)} failed")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
