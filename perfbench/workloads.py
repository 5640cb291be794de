"""The three workloads: inputs, the measured run, the correctness gate.

Each workload function returns ``attempted`` operations, ``failures`` by
cause (``4xx``, ``429``, ``5xx``, ``timeout``, ``drain``, ``check``), the
end-to-end ``metrics`` (``ok_frac`` is filled in by ``run.py``), the
resolved ``kernel_backend`` and, when traced, the per-layer ``layers``.
What each end-to-end metric means on each workload is tabled in
``perfbench/README.md``.
"""

import hashlib
import json
import os
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

import calibrate
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

_clock = time.perf_counter
#: The timed units (fabric generation, construction, certification, a
#: daemon's start) are CPU time of the process doing the work, scaled to
#: reference seconds by a fixed spin job timed beside each unit, and inside
#: constructions and certifications (:mod:`calibrate`); each figure is the
#: median of its units: on a shared host the hypervisor's steal and the
#: scheduler's waits move wall time, and neighbours on the same cores slow
#: the CPU time of whole stretches of the run by up to 2x.

#: Certifications per run, each of one sampled fault set (a sweep over all
#: pairs; samples ``rng=0..``, the same every run); ``verify_s`` is their
#: median.  The fabric's sweeps are shorter, so it runs more of them.
CERTIFICATIONS = {"fabric": 24, "serve": 7}
#: build-fabric: fabric generations timed for ``setup_s`` before the first
#: construction; each construction's own generation adds one more, so the
#: samples cover the whole run.
FABRIC_SETUPS = 9
#: serve-*: daemons started, checked and stopped for ``setup_s`` (the
#: median of their CPU times); one more start serves the load.
SETUP_STARTS = 7
#: serve-*: untimed closed-loop warm-up before the measured phases.
WARMUP = dict(requests=400, concurrency=8)
#: serve-*: share of ``--seconds`` spent in the open loop; the rest
#: saturates the daemon with ``SATURATION_CONCURRENCY`` requests in flight.
OPEN_SHARE = 0.5
SATURATION_CONCURRENCY = 32
#: serve-zipf: saturation-phase requests per second of ``--seconds`` spent
#: in it, so the phase is the same work in every run.
ZIPF_SATURATION_PER_S = 1200
#: serve-churn: requests in the saturation phase (reads and updates).
CHURN_SATURATION_REQUESTS = 1600
#: A closed-loop phase that has not finished by then is cut short.
SATURATION_CAP_SECONDS = 60.0
#: serve-zipf: the open-loop read rate (requests per second).
ZIPF_RATE = 300
#: serve-churn: open-loop reads and updates per second.
CHURN_READ_RATE = 120
CHURN_UPDATE_RATE = 7.5

def spanner_digest(spanner):
    """A digest of the edge set (labels and weights), order-independent."""
    edges = sorted(tuple(sorted((repr(u), repr(v)))) + (repr(float(w)),)
                   for u, v, w in spanner.edges())
    return hashlib.sha256(repr(edges).encode("utf-8")).hexdigest()[:16]


def expected_digest():
    with open(os.path.join(HERE, "expected.json")) as handle:
        return json.load(handle)["digest"]


def _registry_counters():
    """The process registry in Prometheus text, parsed (as ``/metrics``)."""
    from repro.obs.export import render_prometheus
    from repro.obs.metrics import get_registry

    return tracing.parse_prometheus(render_prometheus(get_registry().snapshot()))


def _delta(after, before):
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def _sum_counters(*deltas):
    total = {}
    for delta in deltas:
        for key, value in delta.items():
            total[key] = total.get(key, 0.0) + value
    return total


def _in_windows(spans, windows):
    return [span for span in spans
            if any(start <= span[3] and span[4] <= end
                   for start, end in windows)]


def _count(failures, cause, amount=1):
    if amount:
        failures[cause] = failures.get(cause, 0) + amount


def _rss_mb(usage):
    return usage.ru_maxrss / 1024  # KiB on Linux


def _cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# build-fabric
# ---------------------------------------------------------------------------

def _certify(check, timer, count):
    """Run ``check(rng)`` ``count`` times, samples ``rng=0..``.

    The same fault sets every run: which vertex or edges a sample removes
    changes what a sweep costs, so seeded samples would move ``verify_s``
    from seed to seed.  Returns the median reference seconds (``timer`` is
    a :class:`calibrate.Calibrated`), whether every report was ok, and the
    wall-clock windows (for the traced per-layer table).
    """
    windows = []
    ok = True
    for index in range(count):
        started = _clock()
        ok = timer.time("verify", check, index, sampled=True).ok and ok
        windows.append((started, _clock()))
    return statistics.median(timer.reference("verify")), ok, windows


def build_fabric(*, seed, seconds, trace, workdir):
    from repro.build import BuildSession, BuildSpec
    from repro.graph.csr import csr_snapshot
    from repro.paths import get_kernels
    from repro.spanners import verify

    recorder = tracing.Recorder() if trace else None
    if trace:
        tracing.install(recorder)
    calibrate.pin()
    timer = calibrate.Calibrated()

    def generate():
        return timer.time("setup", inputs.fabric)

    for _ in range(FABRIC_SETUPS):
        graph = generate()
    spec = BuildSpec(**inputs.FABRIC_SPEC)
    expected = expected_digest()
    kernel = get_kernels(spec.kernel).resolve(csr_snapshot(graph)).name

    failures = {}
    attempted = 0
    snapshot = os.path.join(workdir, "fabric_snapshot.json")
    started = None
    while attempted < 3 or _clock() - started < seconds:
        # A fresh graph per build: every construction compiles its own CSR.
        graph = generate()
        session = BuildSession(graph, spec)
        before = _registry_counters()
        build_started = _clock()
        # The first build is the warm-up: lazy imports and first-use
        # set-up are paid there, off the clock.
        result = timer.time(
            "build" if started is not None else "warmup",
            lambda: (session.build(), session.save_snapshot(snapshot))[0],
            sampled=True)
        build_window = (build_started, _clock())
        build_counters = _delta(_registry_counters(), before)
        attempted += 1
        digest = spanner_digest(result.spanner)
        if digest != expected:
            _count(failures, "check")
            print(f"CHECK FAILED: spanner digest {digest} != recorded "
                  f"{expected}")
        if started is None:
            started = _clock()

    before = _registry_counters()
    verify_s, certified, verify_windows = _certify(
        lambda rng: verify.is_ft_spanner(
            graph, result.spanner, spec.stretch, spec.max_faults,
            spec.fault_model, method="sampled", samples=1, rng=rng), timer,
        CERTIFICATIONS["fabric"])
    verify_counters = _delta(_registry_counters(), before)
    attempted += CERTIFICATIONS["fabric"]
    if not certified:
        _count(failures, "check")
        print("CHECK FAILED: the built spanner failed certification")

    builds = timer.reference("build")
    outcome = {
        "attempted": attempted,
        "failures": failures,
        "kernel_backend": kernel,
        "metrics": {
            "setup_s": statistics.median(timer.reference("setup")),
            "verify_s": verify_s,
            "spanner_edges": result.spanner.number_of_edges(),
            "peak_rss_mb": _rss_mb(resource.getrusage(resource.RUSAGE_SELF)),
            "peak_ops_per_s": (result.edges_considered
                               / statistics.median(builds)),
        },
        "notes": [
            f"fabric: n={graph.number_of_nodes()} "
            f"m={graph.number_of_edges()}; {len(builds)} constructions "
            "(reference s) "
            f"{', '.join(f'{b:.3f}s' for b in builds)}; spanner digest "
            f"{digest} (recorded {expected}); {CERTIFICATIONS['fabric']} "
            "single-fault-set certifications "
            + ("passed" if certified else "FAILED"),
        ],
    }
    if trace:
        # The last construction and the certification: per-build figures
        # that do not depend on how many builds fit in the run.
        windows = [build_window, *verify_windows]
        tracing.save_work(workdir, "work",
                          _in_windows(recorder.spans, windows),
                          _sum_counters(build_counters, verify_counters))
        outcome["layers"] = tracing.fold_workdir(workdir)[0]
    return outcome


# ---------------------------------------------------------------------------
# The daemon, as an operator runs it
# ---------------------------------------------------------------------------

class Daemon:
    """``repro-spanner daemon`` on an ephemeral port, via the launcher.

    Its calibration ticks (:class:`calibrate.Ticks`) run from its start
    until it exits or is sent ``SIGUSR1``.
    """

    START_TIMEOUT = 60.0
    STOP_TIMEOUT = 30.0

    def __init__(self, snapshot, workdir, index, trace):
        self.spans_path = (os.path.join(workdir, f"daemon{index}_spans.json")
                           if trace else None)
        self.ticks_path = os.path.join(workdir, f"daemon{index}_ticks.json")
        command = [sys.executable, os.path.join(HERE, "launcher.py"),
                   "--ticks", self.ticks_path]
        if trace:
            command += ["--spans", self.spans_path]
        command += ["--", snapshot, "--port", "0"]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.log = open(os.path.join(workdir, f"daemon{index}.log"), "wb")
        self.stdout = b""
        #: The daemon's own resource usage, once it has been reaped.
        self.usage = None
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        stderr=self.log, env=env, cwd=ROOT)
        self.port = self._await_listening()
        # The "listening" line is printed before the SIGTERM handler is
        # installed; an answered /health means the serving loop (and the
        # handler) is up, so a stop from here on is a real drain.
        try:
            self.get("/health")
        except OSError:
            self.kill()
            raise

    def _read(self, deadline, done):
        """Read stdout until ``done(stdout)``: True, None at EOF, False late."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while not done(self.stdout):
                if not selector.select(max(0.0, deadline - _clock())):
                    return False
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    return None
                self.stdout += chunk
        return True

    def _await_listening(self):
        """Read stdout up to the "listening" line; the startup contract."""
        marker = b"daemon listening on http://"
        listening = self._read(
            _clock() + self.START_TIMEOUT,
            lambda out: b"\n" in out.partition(marker)[2])
        if not listening:
            self.kill()
            raise RuntimeError(
                "daemon did not start in time" if listening is False else
                "daemon exited before listening: "
                + self.stdout.decode(errors="replace"))
        address = self.stdout.split(marker, 1)[1].split(b"\n", 1)[0]
        return int(address.decode().rsplit(":", 1)[1])

    def get(self, path):
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}",
                                    timeout=30) as response:
            return response.read().decode("utf-8")

    def stop(self):
        """SIGTERM, as an operator stops it; True if it drained cleanly.

        The daemon is reaped with ``wait4`` so that :attr:`usage` holds its
        own CPU time and peak RSS, not those of other children.
        """
        self.process.send_signal(signal.SIGTERM)
        deadline = _clock() + self.STOP_TIMEOUT
        try:
            if self._read(deadline, lambda out: False) is False:
                self.kill()
                return False
            while not self._reap(os.WNOHANG):
                if _clock() > deadline:
                    self.kill()
                    return False
                time.sleep(0.01)
        finally:
            self.log.close()
            self.process.stdout.close()
        return (self.process.returncode == 0
                and b"daemon drained cleanly" in self.stdout)

    def _reap(self, options):
        pid, status, usage = os.wait4(self.process.pid, options)
        if pid:
            self.process.returncode = os.waitstatus_to_exitcode(status)
            self.usage = usage
        return pid

    def kill(self):
        self.process.kill()
        self._reap(0)

    def spans(self):
        with open(self.spans_path) as handle:
            return [tuple(span) for span in json.load(handle)]

    def ticks(self):
        with open(self.ticks_path) as handle:
            return json.load(handle)


def _setup_s(snapshot, workdir, trace, failures, timer):
    """Median CPU time, in reference seconds, of :data:`SETUP_STARTS`
    daemons that start, answer ``/health`` and drain: the daemon's whole
    set-up, snapshot load and CSR compile included.  Each is scaled by its
    own ticks."""
    for index in range(SETUP_STARTS):
        daemon = Daemon(snapshot, workdir, index, trace)
        if not daemon.stop():
            _count(failures, "drain")
        ticks = daemon.ticks()
        timer.add("setup", _cpu_s(daemon.usage)
                  - sum(seconds for _, seconds in ticks),
                  calibrate.scale(ticks))
    return statistics.median(timer.reference("setup"))


def _run_loadgen(port, phases, workdir, seconds, cpus):
    plan = os.path.join(workdir, "plan.json")
    out = os.path.join(workdir, "requests.json")
    with open(plan, "w") as handle:
        json.dump(phases, handle)
    subprocess.run([sys.executable, os.path.join(HERE, "loadgen.py"),
                    "--port", str(port), "--plan", plan, "--out", out,
                    "--cpus", ",".join(map(str, cpus[1]))],
                   check=True, timeout=seconds + 90, cwd=ROOT)
    with open(out) as handle:
        document = json.load(handle)
    for error in document["errors"]:
        print(f"load generator: {error}")
    return document["records"]


def _status_cause(status):
    if status == "timeout":
        return "timeout"
    if status == 429:
        return "429"
    if 400 <= status < 500:
        return "4xx"
    return "5xx"


def _peak_rate(records, ticks):
    """Completions per second in the closed-loop saturation phase.

    The phase's answered requests over its time in reference seconds: its
    wall time (first send to last answer), less the daemon's ticks in it,
    scaled by those ticks (:mod:`calibrate`).
    """
    phase = [record for record in records if record[0] == "closed"]
    started = min(record[3] for record in phase)
    ended = max(record[4] for record in phase)
    ticks = [tick for tick in ticks if started <= tick[0] <= ended]
    seconds = (ended - started - sum(seconds for _, seconds in ticks))
    return (sum(1 for record in phase if record[5] == 200)
            / (seconds * calibrate.scale(ticks)))


def _distance(result):
    from repro.serve.protocol import from_wire_distance

    return from_wire_distance(result["distance"])


def _payloads(phases, records):
    """The payload of each record: phases send their messages in order."""
    sent = {}
    payloads = []
    for record in records:
        phase = next(p for p in phases if p["name"] == record[0])
        index = sent.get(record[0], 0)
        sent[record[0]] = index + 1
        payloads.append(phase["messages"][index][1])
    return payloads


def _triple(payload):
    return (payload["source"], payload["target"], tuple(payload["faults"]))


def _serving_snapshot():
    """The serving snapshot's path; built once per program source.

    The serving graph is the same for every seed, so the snapshot is built
    (off the clock) the first time this checkout's ``src/repro`` is
    measured and reused after that.  The cache key covers every source file
    and the construction inputs, so an edited program never serves a stale
    snapshot.
    """
    from repro.build import BuildSession, BuildSpec

    key = hashlib.sha256(repr((inputs.SERVE_GRAPH, inputs.SERVE_SPEC))
                         .encode("utf-8"))
    for folder, _, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                key.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    key.update(handle.read())
    cache = os.path.join(ROOT, ".perfbench", "cache")
    path = os.path.join(cache, f"serve-snapshot-{key.hexdigest()[:16]}.json")
    if not os.path.exists(path):
        os.makedirs(cache, exist_ok=True)
        session = BuildSession(inputs.serving_graph(),
                               BuildSpec(**inputs.SERVE_SPEC))
        session.save_snapshot(path + ".tmp")
        os.replace(path + ".tmp", path)
    return path


def _plan(spanner, seed, seconds, churn):
    """The load generator's phases: warm-up, saturation, open loop.

    The warm-up and the saturation phase replay one fixed stream, so the
    daemon enters the saturation phase in the same state in every run: how
    many distinct (source, faults) keys a Zipf draw holds moves the cache
    hit rate, and with it the peak rate, from seed to seed.  The seed drives
    the open loop, which runs last.
    """
    open_seconds = OPEN_SHARE * seconds
    read_rate = CHURN_READ_RATE if churn else ZIPF_RATE
    if churn:
        # A fixed request count, so the final spanner is the same in every
        # run; the saturation phase keeps the open loop's read:update mix.
        closed_count = CHURN_SATURATION_REQUESTS
    else:
        closed_count = int(ZIPF_SATURATION_PER_S * (seconds - open_seconds))
    fixed = inputs.zipf_reads(spanner, WARMUP["requests"] + closed_count,
                              inputs.SERVE_GRAPH["seed"])
    warmup, closed = fixed[:WARMUP["requests"]], fixed[WARMUP["requests"]:]
    closed = [["distance", payload] for payload in closed]
    reads = inputs.zipf_reads(spanner, int(read_rate * open_seconds), seed)
    updates = []
    update_rate = 0.0
    if churn:
        update_rate = CHURN_UPDATE_RATE
        every = round(read_rate / update_rate)
        closing = closed_count // (every + 1)
        updates = inputs.churn_updates(
            closing + int(update_rate * open_seconds))
        pending, reading = iter(updates[:closing]), iter(closed)
        updates = updates[closing:]
        closed = []
        while len(closed) < closed_count:
            closed.append(["update", next(pending)]
                          if len(closed) % (every + 1) == every
                          else next(reading))
    return [
        {"name": "warmup", "kind": "closed", "seconds": SATURATION_CAP_SECONDS,
         "concurrency": WARMUP["concurrency"],
         "messages": [["distance", payload] for payload in warmup]},
        {"name": "closed", "kind": "closed", "seconds": SATURATION_CAP_SECONDS,
         "concurrency": SATURATION_CONCURRENCY, "messages": closed},
        {"name": "open", "kind": "open",
         "messages": inputs.open_schedule(reads, read_rate, open_seconds,
                                          updates, update_rate)},
    ]


def _serve(*, seed, seconds, trace, workdir, churn):
    from repro.dynamic.live import LiveEngine
    from repro.dynamic.maintain import DynamicSpanner
    from repro.dynamic.updates import update_from_json
    from repro.engine.engine import QueryEngine
    from repro.engine.snapshot import SpannerSnapshot
    from repro.graph.csr import csr_snapshot
    from repro.paths import get_kernels
    from repro.spanners import verify

    recorder = tracing.Recorder() if trace else None
    if trace:
        tracing.install(recorder)
    failures = {}
    attempted = 0

    # This process, the daemons it starts and the spins that scale their
    # times share one CPU; the load generator runs on the others.
    cpus = calibrate.pin()
    timer = calibrate.Calibrated()
    snapshot_path = _serving_snapshot()
    snapshot = SpannerSnapshot.load(snapshot_path)
    spanner = snapshot.spanner
    counters_before = _registry_counters()
    kernel = get_kernels(None).resolve(csr_snapshot(spanner)).name

    phases = _plan(spanner, seed, seconds, churn)
    read_rate = CHURN_READ_RATE if churn else ZIPF_RATE
    update_rate = CHURN_UPDATE_RATE if churn else 0.0
    open_seconds = OPEN_SHARE * seconds

    if not churn:
        verify_s, certified, _ = _certify(
            lambda rng: verify.is_ft_spanner(
                snapshot.original, spanner, snapshot.stretch,
                snapshot.max_faults, snapshot.fault_model, method="sampled",
                samples=1, rng=rng), timer, CERTIFICATIONS["serve"])
        attempted += CERTIFICATIONS["serve"]
        if not certified:
            _count(failures, "check")
            print("CHECK FAILED: the served snapshot failed certification")

    setup_s = _setup_s(snapshot_path, workdir, trace, failures, timer)
    daemon = Daemon(snapshot_path, workdir, SETUP_STARTS, trace)
    attempted += SETUP_STARTS + 1
    # The daemon's ticks stop when the saturation phase has been answered,
    # so they never hold up the open loop.
    next(phase for phase in phases
         if phase["name"] == "closed")["signal"] = daemon.process.pid
    try:
        records = _run_loadgen(daemon.port, phases, workdir, seconds, cpus)
        metrics_text = daemon.get("/metrics")
        health = json.loads(daemon.get("/health"))
    finally:
        if not daemon.stop():
            _count(failures, "drain")
    peak_rss_mb = _rss_mb(daemon.usage)
    peak_ops_per_s = _peak_rate(records, daemon.ticks())

    # Failure accounting: every sent request counts; nothing is retried.
    payloads = _payloads(phases, records)
    attempted += len(records)
    for record in records:
        if record[5] != 200:
            _count(failures, _status_cause(record[5]))

    # The correctness gate: answers against an in-process reference built
    # from the same snapshot file the daemon loaded.
    check_started = _clock()
    reference_snapshot = SpannerSnapshot.load(snapshot_path)
    mismatches = 0
    if churn:
        reference = LiveEngine(DynamicSpanner.from_snapshot(reference_snapshot))
        pending = []

        def settle():
            nonlocal mismatches
            if pending:
                answers = reference.distances_batch(
                    [_triple(payload) for payload, _ in pending])
                mismatches += sum(1 for (_, got), want in zip(pending, answers)
                                  if got != want)
                pending.clear()

        applied = 0
        for record, payload in zip(records, payloads):
            if record[5] != 200:
                continue
            if record[1] == "distance":
                pending.append((payload, _distance(record[6])))
                continue
            # Flush-then-apply: reads sent before the update see the old
            # spanner, reads after it the new one.
            settle()
            outcome = reference.apply(update_from_json(payload["updates"][0]))
            applied += 1
            result = record[6]
            if (result["outcomes"][0]["spanner_changed"]
                    != outcome.spanner_changed
                    or result["journal_offset"] != applied):
                mismatches += 1
        settle()
        final_spanner = reference.dynamic.spanner
        lineage = (final_spanner.version, applied,
                   final_spanner.number_of_edges())
        verify_s, certified, _ = _certify(
            lambda rng: reference.certify(method="sampled", samples=1,
                                          rng=rng), timer,
            CERTIFICATIONS["serve"])
        attempted += CERTIFICATIONS["serve"]
        if not certified:
            _count(failures, "check")
            print("CHECK FAILED: the final spanner failed certification")
    else:
        reference = QueryEngine(reference_snapshot)
        served = [(record, payload)
                  for record, payload in zip(records, payloads)
                  if record[5] == 200]
        answers = reference.distances_batch(
            [_triple(payload) for _, payload in served])
        mismatches = sum(1 for (record, _), want in zip(served, answers)
                         if _distance(record[6]) != want)
        final_spanner = reference_snapshot.spanner
        lineage = (final_spanner.version, 0, final_spanner.number_of_edges())
    # The daemon's own final spanner: version, journal offset and edge count
    # as /health reports them, against the reference's.
    engine = health["engine"]
    served_lineage = (engine["spanner_version"], engine["journal_offset"],
                      engine["snapshot"]["edges"])
    if served_lineage != lineage:
        mismatches += 1
        print(f"CHECK FAILED: daemon lineage (version, offset, edges) "
              f"{served_lineage} != reference {lineage}")
    if mismatches:
        _count(failures, "check", mismatches)
        print(f"CHECK FAILED: {mismatches} answers differ from the reference")
    check_s = _clock() - check_started

    metrics = {"setup_s": setup_s, "verify_s": verify_s,
               "spanner_edges": served_lineage[2],
               "peak_rss_mb": peak_rss_mb,
               "peak_ops_per_s": peak_ops_per_s}
    split = tracing.layer_table([], {}, records)
    opened = [record[1] for record in records if record[0] == "open"]
    records_closed = [record for record in records if record[0] == "closed"]
    outcome = {
        "attempted": attempted,
        "failures": failures,
        "kernel_backend": kernel,
        "metrics": metrics,
        "notes": [
            f"answers checked in {check_s:.2f}s (off the clock)",
            f"snapshot: n={snapshot.original.number_of_nodes()} "
            f"m={snapshot.original.number_of_edges()} "
            f"spanner={spanner.number_of_edges()} edges; open loop {read_rate}/s reads"
            + (f" + {update_rate}/s updates" if churn else "")
            + f" for {open_seconds:g}s, after {len(records_closed)} requests "
              f"with {SATURATION_CONCURRENCY} in flight",
            f"open loop: {opened.count('distance')} reads p50 "
            f"{split['loadgen.read_p50_ms']:.2f}ms p99 "
            f"{split['loadgen.read_p99_ms']:.2f}ms"
            + (f"; {opened.count('update')} updates p50 "
               f"{split['loadgen.update_p50_ms']:.2f}ms p90 "
               f"{split['loadgen.update_p90_ms']:.2f}ms" if churn else "")
            + f"; generator lag p99 {split['loadgen.lag_p99_ms']:.2f}ms",
        ],
    }
    if trace:
        tracing.save_work(workdir, "work", daemon.spans(),
                          tracing.parse_prometheus(metrics_text))
        tracing.save_work(workdir, "offline", recorder.spans,
                          _delta(_registry_counters(), counters_before))
        outcome["layers"] = tracing.fold_workdir(workdir)[0]
    return outcome


def serve_zipf(**kwargs):
    return _serve(churn=False, **kwargs)


def serve_churn(**kwargs):
    return _serve(churn=True, **kwargs)


WORKLOADS = {
    "build-fabric": build_fabric,
    "serve-zipf": serve_zipf,
    "serve-churn": serve_churn,
}
