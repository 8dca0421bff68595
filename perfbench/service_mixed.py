"""Workload ``service_mixed``: ``frapp serve`` under a mixed request load.

One ``frapp serve`` subprocess, driven from this process over at most
:data:`CONNECTIONS` keep-alive connections.

* Phase 1, open loop on a fixed schedule, in two halves: 1000-row ``submit`` at
  :data:`SUBMIT_RATE` per second (about 60% of what the daemon sustains
  over two connections with its default flush timer), 1000-row
  stateless ``perturb`` at a quarter of that rate, and a ``mine`` of the
  growing collection every :data:`MINE_PERIOD` seconds.  Latency is
  timed from when a request was due, not from when it was sent, so a
  stall also charges the requests queued behind it.
* Phase 2, closed loop: both connections submit back to back, to a
  second tenant, in timed rounds of :data:`ROUND_SUBMITS` submissions;
  half of the rounds run before phase 1 and half after it.

The write path (micro-batch, perturb, fsynced spool, ledger), the
stateless path and the read path (``handle_mine`` runs on the event
loop, so reads stall writes) all run.  Between the segments daemons
are spawned on empty data directories (``setup_s``) and the daemon is
restarted on its own (the warm start, ``warm_s``), so that every metric
samples the whole run rather than one moment of it: on a shared machine
speed drifts over seconds.  At the end the spools are checked against
an offline perturbation replayed from the ledger.
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from perfbench.common import (
    ROOT,
    Failure,
    child_env,
    make_work_dir,
    startup_metrics,
    vm_hwm_mb,
)
from perfbench.stats import latency_summary, percentile

CONNECTIONS = 2
ROWS = 1000
SUBMIT_RATE = 40.0
PERTURB_RATE = SUBMIT_RATE / 4
MINE_PERIOD = 3.0
#: Distinct pre-encoded request bodies (rows are drawn from the seed).
BODY_POOL = 64
#: Phase 2 work: rounds of 1000-row submissions, closed loop; wall_s
#: is the median round, so a burst of outside load moves one round only.
PHASE2_ROUNDS = 4
ROUND_SUBMITS = 80
#: Share of --seconds spent in the open-loop phase.
PHASE1_SHARE = 5 / 6
SPAWN_TIMEOUT = 60.0
#: Timed at each point between segments.  Start-up is short and drifts
#: with the machine's load, so it is sampled often and all over the run.
SPAWNS_PER_POINT = 2
RESTARTS_PER_POINT = 3
#: Per-layer counts taken over phase 1 only: (metric, span name).
PHASE1_COUNTS = (("spool.appends", "spool.append"), ("ledger.saves", "ledger.save"))
#: Parts of ``service.submit_s`` reported as shares in a traced run.
SUBMIT_PARTS = (
    "service.batch_wait_s",
    "service.decode_s",
    "service.perturb_batch_s",
    "spool.append_s",
    "ledger.save_s",
)


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
class Daemon:
    """One ``frapp serve --port 0`` child (optionally under the launcher)."""

    def __init__(self, data_dir: Path, seed: int, spans: Path | None = None):
        serve = ["serve", "--port", "0", "--data-dir", str(data_dir)]
        serve += ["--seed", str(seed)]
        if spans is None:
            argv = [sys.executable, "-m", "repro.experiments"] + serve
        else:
            argv = [sys.executable, "-m", "perfbench.launcher", str(spans), "--"]
            argv += serve
        self.log = open(data_dir.parent / f"{data_dir.name}.log", "wb")
        start = time.monotonic()
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=self.log,
            cwd=str(ROOT),
            env=child_env(),
        )
        line = self._announcement()
        self.startup_s = time.monotonic() - start
        match = re.search(r"http://[\w.\-]+:(\d+)", line)
        if not match:
            self.stop()
            raise Failure(f"frapp serve did not announce a port: {line!r}")
        self.port = int(match.group(1))

    def _announcement(self) -> str:
        # readline blocks; a watchdog kills a daemon that never announces.
        watchdog = threading.Timer(SPAWN_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            return self.proc.stdout.readline().decode(errors="replace")
        finally:
            watchdog.cancel()

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (graceful drain) and wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# ----------------------------------------------------------------------
# a minimal keep-alive HTTP/1.1 client
# ----------------------------------------------------------------------
class Connection:
    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, path: str, body: bytes = b""):
        """``(status, response body bytes)``."""
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("connection closed by the daemon")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def call_json(port: int, method: str, path: str, body: dict | None = None) -> dict:
    """One request on a fresh connection; the decoded reply (200 only)."""

    async def go():
        connection = await Connection.open(port)
        try:
            payload = b"" if body is None else json.dumps(body).encode()
            return await connection.request(method, path, payload)
        finally:
            await connection.close()

    status, payload = asyncio.run(go())
    if status != 200:
        raise Failure(f"{method} {path} -> {status}: {payload[:500]!r}")
    return json.loads(payload)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
class Inputs:
    """Seeded request bodies: submit blocks and perturb requests."""

    def __init__(self, seed: int):
        from repro.data.census import census_schema, generate_census

        self.schema = census_schema()
        rng = np.random.default_rng(seed)
        population = generate_census(BODY_POOL * ROWS, seed=seed)
        self.blocks = population.records.reshape(BODY_POOL, ROWS, -1)
        rows = [block.tolist() for block in self.blocks]
        self.submit_bodies = {
            tenant: [
                json.dumps({"tenant": tenant, "records": block}).encode()
                for block in rows
            ]
            for tenant in ("p1", "p2")
        }
        seeds = rng.integers(0, 2**31, size=BODY_POOL).tolist()
        self.perturb_bodies = [
            json.dumps({"records": block, "seed": s}).encode()
            for block, s in zip(rows, seeds)
        ]
        self.submit_order = rng.integers(0, BODY_POOL, size=1 << 16).tolist()


def phase1_schedule(duration: float, inputs: Inputs, part: int):
    """``(due offset s, kind, body index)`` of one part, sorted by due time."""
    schedule = []
    n_submits = int(duration * SUBMIT_RATE)
    for i in range(n_submits):
        body = inputs.submit_order[part * n_submits + i]
        schedule.append((i / SUBMIT_RATE, "submit", body))
    for j in range(int(duration * PERTURB_RATE)):
        schedule.append(((j + 0.5) / PERTURB_RATE, "perturb", (part + j) % BODY_POOL))
    mines = [MINE_PERIOD * (k + 0.5) for k in range(int(duration / MINE_PERIOD + 0.5))]
    for due in mines or [duration / 2]:
        schedule.append((due, "mine", None))
    schedule.sort(key=lambda item: item[0])
    return schedule


# ----------------------------------------------------------------------
# load phases
# ----------------------------------------------------------------------
_MINE_BODY = json.dumps({"tenant": "p1", "min_support": 0.02}).encode()


async def _open_loop(port: int, schedule, inputs: Inputs) -> list[dict]:
    connections = [await Connection.open(port) for _ in range(CONNECTIONS)]
    queue = iter(schedule)
    records: list[dict] = []
    origin = time.monotonic() + 0.05

    async def worker(connection):
        for offset, kind, index in queue:
            due = origin + offset
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.monotonic()
            if kind == "submit":
                path, body = "/v1/submit", inputs.submit_bodies["p1"][index]
            elif kind == "perturb":
                path, body = "/v1/perturb", inputs.perturb_bodies[index]
            else:
                path, body = "/v1/mine", _MINE_BODY
            status, payload = await connection.request("POST", path, body)
            records.append(
                {
                    "kind": kind,
                    "index": index,
                    "due": due,
                    "sent": sent,
                    "done": time.monotonic(),
                    "status": status,
                    "payload": payload,
                }
            )

    try:
        await asyncio.gather(*(worker(c) for c in connections))
    finally:
        for connection in connections:
            await connection.close()
    return records


async def _closed_loop(port: int, inputs: Inputs, first_round: int, n_rounds: int):
    """``(records, [seconds per round])``."""
    connections = [await Connection.open(port) for _ in range(CONNECTIONS)]
    records: list[dict] = []
    rounds = []

    async def worker(connection, queue):
        for i in queue:
            index = inputs.submit_order[-1 - i]
            status, payload = await connection.request(
                "POST", "/v1/submit", inputs.submit_bodies["p2"][index]
            )
            records.append(
                {"kind": "submit", "index": index, "status": status, "payload": payload}
            )

    try:
        for r in range(first_round, first_round + n_rounds):
            queue = iter(range(r * ROUND_SUBMITS, (r + 1) * ROUND_SUBMITS))
            start = time.monotonic()
            await asyncio.gather(*(worker(c, queue) for c in connections))
            rounds.append(time.monotonic() - start)
    finally:
        for connection in connections:
            await connection.close()
    return records, rounds


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _check_replies(outcome, records, inputs: Inputs) -> list:
    """Statuses and reply shapes; returns ``(start, stop, body index)`` acks."""
    cards = np.array([len(a.categories) for a in inputs.schema.attributes])
    acks = []
    for record in records:
        ok = record["status"] == 200
        outcome.operation(ok)
        if not ok:
            detail = f"{record['status']}: {record['payload'][:300]!r}"
            outcome.checks.append((f"{record['kind']} answered 200", False, detail))
            continue
        body = json.loads(record["payload"])
        if record["kind"] == "submit":
            acks.append((body["start"], body["stop"], record["index"]))
        elif record["kind"] == "perturb":
            reply = np.asarray(body["records"])
            outcome.check(
                "perturb reply has the request's shape and lies in the domain",
                reply.shape == (ROWS, len(cards))
                and bool(np.all((reply >= 0) & (reply < cards))),
            )
        else:
            outcome.check(
                "mine reply lists itemsets over a non-empty collection",
                body["n_records"] > 0 and isinstance(body["itemsets"], list),
            )
    return acks


def _check_spool(outcome, data_dir: Path, tenant: str, acks, inputs: Inputs):
    """Acknowledged rows tile the spool, which equals the offline replay."""
    from repro.data.dataset import CategoricalDataset
    from repro.data.io import FrdSpool
    from repro.mechanisms import MechanismSpec, from_spec
    from repro.service import LedgerStore

    acks = sorted(acks)
    tiled = all(a[1] - a[0] == ROWS and a[0] == i * ROWS for i, a in enumerate(acks))
    outcome.check(f"{tenant}: acknowledged rows tile the spool", tiled)
    record = LedgerStore(data_dir).load(tenant).collections["default"]
    acked = len(acks) * ROWS
    with FrdSpool(inputs.schema, data_dir / tenant / "default.frd") as spool:
        outcome.check(
            f"{tenant}: spooled rows == acknowledged rows",
            spool.n_records == acked == record.records,
            f"spool {spool.n_records}, acked {acked}, ledger {record.records}",
        )
        spooled = spool.records(0, spool.n_records)
    if not tiled:
        return
    submitted = CategoricalDataset(
        inputs.schema, np.concatenate([inputs.blocks[a[2]] for a in acks])
    )
    mechanism = from_spec(MechanismSpec.from_dict(record.statement.spec), inputs.schema)
    offline = mechanism.perturb(submitted, seed=record.seed)
    outcome.check(
        f"{tenant}: spool is bit-identical to offline mechanism.perturb",
        np.array_equal(spooled, offline.records),
    )


# ----------------------------------------------------------------------
# the session
# ----------------------------------------------------------------------
class Session:
    """The daemon instances of one run and what they were measured at."""

    def __init__(self, seed: int, work: Path, traced: bool):
        self.seed, self.work, self.traced = seed, work, traced
        self.data_dir = work / "data"
        self.span_files: list[Path] = []
        self.spawns: list[float] = []
        self.warm: list[float] = []
        self.peak_rss: list[float] = []
        self.shed = 0
        self.daemon: Daemon | None = None

    def start(self) -> Daemon:
        """(Re)start the daemon on the session's data directory."""
        spans = None
        if self.traced:
            spans = self.work / f"spans{len(self.span_files)}.json"
            self.span_files.append(spans)
        fresh = not self.data_dir.exists()
        self.daemon = Daemon(self.data_dir, self.seed, spans)
        (self.spawns if fresh else self.warm).append(self.daemon.startup_s)
        return self.daemon

    def stop(self) -> None:
        """Read the daemon's shed counter and peak RSS, then stop it."""
        if self.daemon is not None:
            try:
                health = call_json(self.daemon.port, "GET", "/v1/health")
                self.shed += health["admission"]["shed_total"]
                self.peak_rss.append(self.daemon.peak_rss_mb())
            finally:
                self.daemon.stop()
            if self.daemon.proc.returncode != 0:
                raise Failure(f"frapp serve exited {self.daemon.proc.returncode}")
            self.daemon = None

    def restart(self) -> None:
        """Spawns on empty directories (set-up), then warm restarts."""
        for _ in range(SPAWNS_PER_POINT):
            empty = Daemon(self.work / f"empty{len(self.spawns)}", self.seed)
            self.spawns.append(empty.startup_s)
            empty.stop()
        for _ in range(RESTARTS_PER_POINT):
            self.stop()
            self.start()


def _session(seed, seconds, outcome, work, inputs, traced=False) -> dict:
    """The segments of one run; returns what was measured."""
    session = Session(seed, work, traced)
    report = {
        "session": session, "phase1": [], "phase2": [], "rounds": [], "windows": []
    }
    half_rounds = PHASE2_ROUNDS // 2
    half_phase1 = seconds * PHASE1_SHARE / 2
    try:
        port = session.start().port
        for tenant in ("p1", "p2"):
            call_json(port, "POST", "/v1/tenants", {"tenant": tenant})
            call_json(port, "POST", "/v1/collections", {"tenant": tenant})
        segments = [("rounds", 0), ("phase1", 0), ("phase1", 1), ("rounds", 1)]
        for i, (kind, part) in enumerate(segments):
            if i:
                session.restart()
            port = session.daemon.port
            if kind == "rounds":
                records, rounds = asyncio.run(
                    _closed_loop(port, inputs, part * half_rounds, half_rounds)
                )
                report["phase2"] += records
                report["rounds"] += rounds
            else:
                schedule = phase1_schedule(half_phase1, inputs, part)
                start = time.monotonic()
                report["phase1"] += asyncio.run(_open_loop(port, schedule, inputs))
                report["windows"].append((start, time.monotonic()))
    finally:
        session.stop()
    report["acks"] = {
        "p1": _check_replies(outcome, report["phase1"], inputs),
        "p2": _check_replies(outcome, report["phase2"], inputs),
    }
    # More warm starts on the final state; each must recover every
    # acknowledged row.
    for _ in range(RESTARTS_PER_POINT):
        port = session.start().port
        try:
            ledger = call_json(port, "GET", "/v1/ledger/p1")["ledger"]
        finally:
            session.stop()
        recovered = ledger["collections"]["default"]["records"]
        outcome.check(
            "restart recovers every acknowledged p1 row",
            recovered == len(report["acks"]["p1"]) * ROWS,
        )
    for tenant in ("p1", "p2"):
        _check_spool(outcome, session.data_dir, tenant, report["acks"][tenant], inputs)
    return report


def _latencies(records, kind) -> list[float]:
    return [
        (r["done"] - r["due"]) * 1e3
        for r in records
        if r["kind"] == kind and r["status"] == 200
    ]


def _gen_lag_p99_ms(records) -> float:
    return percentile([(r["sent"] - r["due"]) * 1e3 for r in records], 99.0)


def run(seed: int, seconds: float, outcome) -> None:
    work = make_work_dir("service_mixed")
    try:
        inputs = Inputs(seed)
        report = _session(seed, seconds, outcome, work, inputs)
        session = report["session"]
        outcome.metrics["setup_s"] = statistics.median(session.spawns)
        outcome.metrics["wall_s"] = statistics.median(report["rounds"])
        outcome.metrics["warm_s"] = statistics.median(session.warm)
        outcome.metrics["peak_rss_mb"] = max(session.peak_rss)
        samples = {
            "setup_s": len(session.spawns),
            "wall_s": len(report["rounds"]),
            "warm_s": len(session.warm),
        }
        for kind, names in (
            ("submit", ("submit_p50_ms", "submit_p99_ms")),
            ("perturb", ("perturb_p50_ms", "perturb_p99_ms")),
            ("mine", ("mine_p50_ms", None)),
        ):
            summary = latency_summary(_latencies(report["phase1"], kind))
            samples[kind] = summary
            for name, key in zip(names, ("p50", "p99")):
                if name:
                    outcome.metrics[name] = summary[key]
                    outcome.units[name] = "ms"
        outcome.metrics["submit_rows_per_s"] = (
            PHASE2_ROUNDS * ROUND_SUBMITS * ROWS / sum(report["rounds"])
        )
        outcome.units["submit_rows_per_s"] = "rows/s"
        outcome.metrics["gen_lag_p99_ms"] = _gen_lag_p99_ms(report["phase1"])
        outcome.units["gen_lag_p99_ms"] = "ms"
        outcome.notes["samples"] = samples
        outcome.notes["shed"] = session.shed
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_traced(seed: int, seconds: float, outcome) -> None:
    from perfbench import tracing

    work = make_work_dir("service_mixed-traced")
    try:
        outcome.metrics.update(startup_metrics(outcome))
        inputs = Inputs(seed)
        # Untraced phase 2 alone, for the tracing overhead on wall_s.
        daemon = Daemon(work / "plain", seed)
        try:
            call_json(daemon.port, "POST", "/v1/collections", {"tenant": "p2"})
            _records, untraced = asyncio.run(
                _closed_loop(daemon.port, inputs, 0, PHASE2_ROUNDS)
            )
        finally:
            daemon.stop()
        (work / "traced").mkdir()
        report = _session(seed, seconds, outcome, work / "traced", inputs, True)
        session = report["session"]
        trace = tracing.merge([json.loads(p.read_text()) for p in session.span_files])
        metrics = tracing.layer_metrics(trace)
        flushes = _flushes(trace)
        rows = sum(len(acks) for acks in report["acks"].values()) * ROWS
        metrics["service.flushes"] = flushes
        metrics["service.rows_per_flush"] = rows / flushes if flushes else 0.0
        metrics["service.shed"] = session.shed
        for since, until in report["windows"]:
            phase1 = tracing.aggregate(trace, since=since, until=until)
            for name, span in PHASE1_COUNTS:
                metrics[name] += phase1.get(span, {}).get("calls", 0)
        metrics["bench.gen_lag_p99_ms"] = _gen_lag_p99_ms(report["phase1"])
        overhead = statistics.median(report["rounds"]) - statistics.median(untraced)
        metrics["bench.trace_overhead_s"] = overhead
        outcome.metrics.update(metrics)
        outcome.notes["shares"] = {
            f"{name} / service.submit_s": metrics[name] / metrics["service.submit_s"]
            for name in SUBMIT_PARTS
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _flushes(trace) -> int:
    """Micro-batch flushes: perturb_batch spans not under a stateless perturb."""
    info = {span[0]: (span[1], span[2]) for span in trace["spans"]}

    def under_perturb(span_id):
        while span_id:
            span_id, name = info[span_id]
            if name == "service.perturb":
                return True
        return False

    return sum(
        1
        for span_id, parent, name, _start, _end in trace["spans"]
        if name == "service.perturb_batch" and not under_perturb(parent)
    )
