#!/usr/bin/env python3
"""End-to-end benchmark of the rdfalign CLI and the rdfalignd daemon.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli-align --seed 1 --seconds 20 --trace 0

It builds `rdfalign`, `rdfalignd` and `perfbench_tool` from source into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's inputs
from --seed, prepares them with the program under test, runs one operation
in a closed loop for --seconds, checks every response, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(see perfbench/METRICS.md for the catalogue). Everything the run writes
lives in a fresh directory under .bench_run/ and is removed at the end.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
CLI = os.path.join(BUILD, "rdfalign", "rdfalign")
DAEMON = os.path.join(BUILD, "rdfalign", "rdfalignd")
TOOL = os.path.join(BUILD, "perfbench_tool")

SETUP_REPEATS = 3      # setup_s is the median of this many full set-ups
# Traced-run reconciliation: per replayed op, the top-level spans plus the
# unattributed time must equal the op wall within this share of it, and
# the unattributed time may not exceed UNATTRIBUTED_MAX of it.
RECONCILE_TOL = 0.01
UNATTRIBUTED_MAX = 0.05
SUBPROCESS_TIMEOUT_S = 120


class BenchError(Exception):
    """Stops the run without a result line (exit 1)."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def now():
    return time.perf_counter()


def run(cmd, cwd, capture=True):
    """Runs a command to completion and returns its stdout."""
    p = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE if capture
                         else subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        out, err = p.communicate(timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        raise BenchError("timed out: " + " ".join(cmd))
    if p.returncode != 0:
        raise BenchError("%s exited %d: %s" % (os.path.basename(cmd[0]),
                                              p.returncode,
                                              err.decode(errors="replace")))
    return (out or b"").decode()


def spawn_timed(cmd, cwd):
    """One CLI op: (returncode, stdout, wall_s, cpu_s, maxrss_kb), timed from
    spawn to exit."""
    t0 = now()
    p = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    wall = now() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    return p.returncode, out.decode(), wall, ru.ru_utime + ru.ru_stime, \
        ru.ru_maxrss


# ------------------------------------------------------------------ build

def build():
    # Configuring again is cheap and repairs a build tree whose first
    # configure failed.
    run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ROOT, capture=False)
    run(["cmake", "--build", BUILD, "-j4", "--target", "rdfalign_cli",
         "rdfalignd", "perfbench_tool"], ROOT, capture=False)


# ------------------------------------------------------------ host probe

def host_ref_ms():
    """A fixed CPU-bound reference kernel; its time tracks the box's speed,
    not the program's."""
    times = []
    for _ in range(5):
        t0 = now()
        acc = 0
        for i in range(200000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        times.append((now() - t0) * 1e3)
    return statistics.median(times)


# ---------------------------------------------------------------- daemon

def frame(payload):
    return struct.pack("<I", len(payload)) + payload


class Conn:
    """One persistent rdfalignd connection speaking the frame protocol."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _read(self, n):
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise BenchError("daemon closed the connection")
            buf += chunk
        return bytes(buf)

    def _read_frame(self):
        (n,) = struct.unpack("<I", self._read(4))
        return self._read(n)

    def call(self, tokens, payload=None):
        """Returns (envelope, body, wall_s): first request byte sent to
        last response byte received."""
        data = frame("\n".join(tokens).encode())
        if payload is not None:
            data += frame(payload)
        t0 = now()
        self.sock.sendall(data)
        envelope = self._read_frame()
        body = self._read_frame()
        wall = now() - t0
        return json.loads(envelope), body.decode(), wall

    def close(self):
        self.sock.close()


def stale_daemons():
    """PIDs of rdfalignd processes started from this build tree."""
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            if os.readlink("/proc/%s/exe" % pid) == DAEMON:
                pids.append(int(pid))
        except OSError:
            pass
    return pids


class Daemon:
    """A fresh rdfalignd on an ephemeral port. Always stopped by stop()."""

    def __init__(self, cwd, workers):
        stale = stale_daemons()
        if stale:
            raise BenchError("refusing to run: rdfalignd already running "
                             "(pids %s)" % stale)
        t0 = now()
        self.proc = subprocess.Popen(
            [DAEMON, "--port=0", "--workers=%d" % workers, "--drain-ms=1000"],
            cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            line = self.proc.stdout.readline().decode()
            if "listening on" not in line:
                raise BenchError("rdfalignd did not start: %r" % line)
            self.port = int(line.split("listening on ")[1].split()[0]
                            .rsplit(":", 1)[1])
            # Started = the first connection is accepted and answered.
            conn = Conn(self.port)
            env, _, _ = conn.call(["cache", "stats", "--json"])
            conn.close()
            if not env.get("ok"):
                raise BenchError("rdfalignd rejected the first request")
        except BaseException:
            self.stop()
            raise
        self.start_s = now() - t0

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def status_kb(self, field):
        """A kB field of /proc/<pid>/status, e.g. VmHWM (peak RSS)."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise BenchError("no %s for rdfalignd" % field)

    def reset_peak(self):
        """Resets VmHWM to the current RSS."""
        with open("/proc/%d/clear_refs" % self.proc.pid, "w") as f:
            f.write("5")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -------------------------------------------------------------- workloads

class Outcome:
    """What one timed loop produced."""

    def __init__(self):
        self.lat_s = []        # per completed op
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.peak_rss_kb = 0
        self.cpu_s = 0.0       # program CPU over the timed loop
        self.notes = []        # first few failure reasons
        self.records = []      # per-op parsed responses (trace use)

    def fail(self, why):
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(why)


def closed_loop(seconds, conns, op):
    """Runs op(conn_index) on each connection until `seconds` have passed.
    Each op is sent when the previous one has returned. Returns the loop
    wall."""
    t0 = now()
    deadline = t0 + seconds
    errors = []

    def worker(i):
        try:
            while now() < deadline:
                op(i)
        except Exception as e:  # recorded and re-raised below
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return now() - t0


def align_answer(rec):
    """An align --json record without its timing fields: everything the
    alignment computed, which must not change from op to op."""
    answer = {k: v for k, v in rec.items()
              if k not in ("align_seconds", "phases")}
    for side in ("a", "b"):
        answer[side] = {k: v for k, v in rec[side].items() if k != "load_ms"}
    return answer


def align_check(expected, body):
    """Parses an align --json body; returns (record, error or None)."""
    try:
        rec = json.loads(body)
        got = align_answer(rec)
    except (ValueError, KeyError, AttributeError):
        return None, "unparsable align output"
    if got != expected:
        diff = sorted(k for k in set(got) | set(expected)
                      if got.get(k) != expected.get(k))
        return rec, "align answer differs from the first op's in %s" % diff
    return rec, None


class Workload:
    """One benchmark workload: generate inputs, set up, then a closed loop
    of one fixed op (open_load, loop, close_load) and, in traced runs, the
    layer breakdown."""
    name = ""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.inputs = {}       # generated input sizes, for the catalogue
        self.snapshots = []    # (input .nt, snapshot the program writes)
        self.daemon = None
        self.setup_spans = {}  # name -> ms, from the last set-up
        self.build_info = []

    def path(self, name):
        return os.path.join(self.work, name)

    def build_snapshots(self):
        self.build_info = []
        for nt, snap in self.snapshots:
            out = run([CLI, "build", nt, snap, "--json"], self.work)
            self.build_info.append(json.loads(out))

    def disk_bytes(self):
        return sum(os.path.getsize(self.path(s)) for _, s in self.snapshots)

    def start_daemon(self):
        # Four workers: more than the connections the benchmark ever holds
        # at once (an idle held connection pins a worker).
        self.daemon = Daemon(self.work, workers=4)
        self.setup_spans["service.start_ms"] = self.daemon.start_s * 1e3

    def stop(self):
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def open_load(self, res):
        pass

    def close_load(self, res):
        pass


class CliAlign(Workload):
    """One `rdfalign align a b --json --threads=2` process per op."""
    name = "cli-align"

    def generate(self):
        out = run([CLI, "gen", "cat_", "--scale=4", "--versions=2",
                   "--seed=%d" % self.args.seed], self.work)
        self.inputs["category_chain"] = out.strip().splitlines()
        self.snapshots = [("cat_1.nt", "a.snap"), ("cat_2.nt", "b.snap")]
        self.cmd = [CLI, "align", "a.snap", "b.snap", "--json", "--threads=2"]

    def setup(self, keep):
        t0 = now()
        self.build_snapshots()
        rc, out, _, _, _ = spawn_timed(self.cmd, self.work)
        if rc != 0:
            raise BenchError("warm-up align exited %d" % rc)
        self.expected = align_answer(json.loads(out))
        return now() - t0

    def loop(self, seconds, res):
        def op(_):
            res.attempted += 1
            rc, out, wall, cpu, rss = spawn_timed(self.cmd, self.work)
            res.peak_rss_kb = max(res.peak_rss_kb, rss)
            res.cpu_s += cpu
            if rc != 0:
                return res.fail("align exited %d" % rc)
            rec, err = align_check(self.expected, out)
            if err:
                return res.fail(err)
            res.lat_s.append(wall)
            res.records.append((wall, rec))

        return closed_loop(seconds, 1, op)

    def trace(self, res, m):
        m["util.cpu_per_wall"] = res.cpu_s / res.wall_s
        # Exec, page faults and teardown: the op wall the CLI's own
        # load_ms + phases do not cover.
        m["tools.process_ms"] = statistics.median(
            wall * 1e3 - rec["a"]["load_ms"] - rec["b"]["load_ms"] -
            sum(rec["phases"].values()) for wall, rec in res.records)
        replay(m, self, ["trace-align", "a.snap", "b.snap", "--method=hybrid",
                         "--threads=2"])


class DaemonWorkload(Workload):
    def open_load(self, res):
        self.cpu0 = self.daemon.cpu_s()

    def close_load(self, res):
        res.cpu_s = self.daemon.cpu_s() - self.cpu0
        res.peak_rss_kb = self.daemon.status_kb("VmHWM")

    def trace_daemon(self, res, m, verb):
        """Server-side view, read after the load connections closed."""
        conn = Conn(self.daemon.port)
        env, body, _ = conn.call(["stats", "--json"])
        cache_env, cache_body, _ = conn.call(["cache", "stats", "--json"])
        conn.close()
        if not env.get("ok") or not cache_env.get("ok"):
            raise BenchError("stats request failed")
        verbs = {v["verb"]: v for v in json.loads(body)["verbs"]}
        cache = json.loads(cache_body)
        server = verbs[verb]["p50_ms"]
        m["service.server_ms"] = server
        m["service.transport_ms"] = statistics.median(res.lat_s) * 1e3 - server
        lookups = cache["hits"] + cache["misses"]
        m["service.cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0
        m["util.cpu_per_wall"] = res.cpu_s / res.wall_s


class ServeOverlap(DaemonWorkload):
    """rdfalignd, cache warm with both snapshots, two connections each
    sending `align efo-7.snap efo-8.snap --method=overlap --json`."""
    name = "serve-overlap"
    CONNS = 2

    def generate(self):
        out = run([TOOL, "gen-efo", "efo-", "--classes=8000",
                   "--versions=9", "--seed=%d" % self.args.seed,
                   "--emit=7,8"], self.work)
        self.inputs["efo_chain"] = json.loads(out)["files"]
        self.snapshots = [("efo-7.nt", "efo-7.snap"),
                          ("efo-8.nt", "efo-8.snap")]
        self.tokens = ["align", "efo-7.snap", "efo-8.snap",
                       "--method=overlap", "--json"]

    def setup(self, keep):
        t0 = now()
        self.build_snapshots()
        self.start_daemon()
        conn = Conn(self.daemon.port)
        env, body, _ = conn.call(self.tokens)
        conn.close()
        if env.get("exit_code") != 0:
            raise BenchError("warm-up align failed: %s" % env.get("error"))
        self.expected = align_answer(json.loads(body))
        elapsed = now() - t0
        if not keep:
            self.stop()
        return elapsed

    def open_load(self, res):
        super().open_load(res)
        self.conns = [Conn(self.daemon.port) for _ in range(self.CONNS)]

    def close_load(self, res):
        for c in self.conns:
            c.close()
        super().close_load(res)

    def loop(self, seconds, res):
        lock = threading.Lock()

        def op(i):
            env, body, wall = self.conns[i].call(self.tokens)
            with lock:
                res.attempted += 1
                if env.get("exit_code") != 0 or not env.get("ok"):
                    return res.fail("align failed: %s" % env.get("error"))
                _, err = align_check(self.expected, body)
                if err:
                    return res.fail(err)
                res.lat_s.append(wall)

        return closed_loop(seconds, self.CONNS, op)

    def trace(self, res, m):
        self.trace_daemon(res, m, "align")
        replay(m, self, ["trace-align", "efo-7.snap", "efo-8.snap",
                         "--method=overlap", "--threads=1", "--cached"])


class StreamBlank(DaemonWorkload):
    """One connection: `stream open` on one EFO-like version, then
    `stream push` of small fragments editing literals of blank subjects,
    back to back, in sessions of a fixed push count."""
    name = "stream-blank"
    # A session's memory grows with every push
    # (stream.rss_growth_kb_per_push), so the run pushes a fixed count:
    # SESSIONS_PER_S sessions per second of --seconds, SESSION_PUSHES
    # pushes each, and peak_rss_mb is the median of the sessions' peaks.
    # The daemon keeps part of a closed session's memory, so its peak over
    # a whole run jumped by 37 MiB in some runs and not others.
    # SESSION_PUSHES is even, so the edit/restore fragments cancel out and
    # every session ends on the source graph.
    SESSION_PUSHES = 50
    SESSIONS_PER_S = 0.5
    GRAPH_SEED = 11

    def generate(self):
        # The graph is fixed (the generator's default seed): step cost
        # follows the live blank count, which the EFO generator varies by
        # seed. --seed picks the edited blanks.
        out = run([TOOL, "gen-efo", "efo-", "--classes=12000",
                   "--versions=1", "--seed=%d" % self.GRAPH_SEED,
                   "--emit=0"], self.work)
        self.inputs["efo_version"] = json.loads(out)["files"]
        frags = json.loads(run([TOOL, "fragments", "efo-0.nt", "frag-",
                                "--seed=%d" % self.args.seed], self.work))
        self.inputs["fragments"] = frags
        self.snapshots = [("efo-0.nt", "efo.snap")]
        self.frag_paths = frags["files"]
        self.edits = frags["edits"]
        self.frags = []
        for p in self.frag_paths:
            with open(self.path(p), "rb") as f:
                self.frags.append(f.read())

    def open_session(self):
        env, _, _ = self.conn.call(["stream", "open", "efo.snap", "efo.snap",
                                    "--method=deblank", "--json"])
        if env.get("exit_code") != 0:
            raise BenchError("stream open failed: %s" % env.get("error"))

    def setup(self, keep):
        t0 = now()
        self.build_snapshots()
        self.start_daemon()
        t_open = now()
        self.conn = Conn(self.daemon.port)
        self.open_session()
        self.setup_spans["service.open_ms"] = (now() - t_open) * 1e3
        elapsed = now() - t0
        if not keep:
            self.conn.close()
            self.stop()
        return elapsed

    def open_load(self, res):
        super().open_load(res)
        # Every timed session opens its own, so the set-up's warm-up
        # session is closed.
        env, _, _ = self.conn.call(["stream", "close", "--json"])
        if env.get("exit_code") != 0:
            raise BenchError("stream close failed: %s" % env.get("error"))
        self.first_shape = {}
        self.rss_growth_kb = []
        self.peak_kb = []
        self.push_cpu_s = 0.0

    def push(self, res, k):
        env, body, wall = self.conn.call(["stream", "push", "--json"],
                                         self.frags[k])
        res.attempted += 1
        if env.get("exit_code") != 0 or not env.get("ok"):
            return res.fail("push failed: %s" % env.get("error"))
        try:
            rec = json.loads(body)
            applied = {key: rec[key] for key in (
                "applied_adds", "applied_removes", "ignored_adds",
                "ignored_removes", "refined", "dirty_total")}
            shape = (rec["new_nodes"], rec["removed_nodes"],
                     rec["dirty_total"], len(rec["added_pairs"]),
                     len(rec["removed_pairs"]))
        except (ValueError, KeyError, TypeError):
            return res.fail("unparsable push output")
        # Every edit must land, and every push re-signs the blanks.
        if not (applied["applied_adds"] == applied["applied_removes"] ==
                self.edits and applied["ignored_adds"] ==
                applied["ignored_removes"] == 0 and applied["refined"] and
                applied["dirty_total"] > 0):
            return res.fail("fragment %d applied partly: %r" % (k, applied))
        # Re-pushing a fragment onto the same graph state must give the same
        # answer as its first application.
        if self.first_shape.setdefault(k, shape) != shape:
            return res.fail("fragment %d answered %r, first %r" %
                            (k, shape, self.first_shape[k]))
        res.lat_s.append(wall)
        res.records.append(rec)

    def session(self, res):
        """One session: open, SESSION_PUSHES pushes back to back, timed,
        then (untimed) `stream check` against the source, which the target
        equals again, and close. Returns the pushes' wall."""
        self.daemon.reset_peak()
        self.open_session()
        rss0_kb = self.daemon.status_kb("VmRSS")
        cpu0 = self.daemon.cpu_s()
        t0 = now()
        for i in range(self.SESSION_PUSHES):
            self.push(res, i % len(self.frags))
        wall = now() - t0
        self.push_cpu_s += self.daemon.cpu_s() - cpu0
        self.peak_kb.append(self.daemon.status_kb("VmHWM"))
        self.rss_growth_kb.append(self.daemon.status_kb("VmRSS") - rss0_kb)
        env, body, _ = self.conn.call(["stream", "check", "efo.snap",
                                       "--json"])
        if env.get("exit_code") != 0 or \
                not json.loads(body).get("equivalent"):
            res.fail("stream check: not equivalent (%s)" % env.get("error"))
        env, _, _ = self.conn.call(["stream", "close", "--json"])
        if env.get("exit_code") != 0:
            raise BenchError("stream close failed: %s" % env.get("error"))
        return wall

    def loop(self, seconds, res):
        """Runs the sessions of `seconds`. Returns the wall of the pushes
        alone."""
        sessions = max(1, round(seconds * self.SESSIONS_PER_S))
        return sum(self.session(res) for _ in range(sessions))

    def close_load(self, res):
        self.conn.close()
        super().close_load(res)
        # CPU covers the pushes alone, like the timed wall; the peak covers
        # one session's open and pushes.
        res.cpu_s = self.push_cpu_s
        res.peak_rss_kb = statistics.median(self.peak_kb)

    def trace(self, res, m):
        self.trace_daemon(res, m, "stream")
        dirty = [r["dirty_total"] for r in res.records]
        useful = sum(len(r["added_pairs"]) + len(r["removed_pairs"])
                     for r in res.records)
        m["stream.dirty_per_batch"] = statistics.median(dirty)
        m["stream.useful_ratio"] = useful / max(1, sum(dirty))
        m["stream.rss_growth_kb_per_push"] = \
            statistics.median(self.rss_growth_kb) / self.SESSION_PUSHES
        replay(m, self, ["trace-stream", "efo.snap"] + self.frag_paths)


WORKLOADS = {w.name: w for w in (CliAlign, ServeOverlap, StreamBlank)}


# ----------------------------------------------------------------- tracing

def op_spans(spans):
    """Groups replay spans into {op id: (root, [top-level children])}."""
    ops = {}
    for s in spans:
        if s["name"] == "op" and s["op"] >= 0:
            ops[s["op"]] = (s, [])
    for s in spans:
        if s["parent"] >= 0 and spans[s["parent"]]["name"] == "op" and \
                s["op"] in ops:
            ops[s["op"]][1].append(s)
    return ops


def reconcile(workload, spans):
    """Per op: unattributed = wall minus the union of its child spans.
    Fails unless children stay inside the op, sum with the unattributed
    time to the wall within RECONCILE_TOL, and leave at most
    UNATTRIBUTED_MAX of it unexplained. Returns per-op layer sums."""
    per_op = []
    for op_id, (root, kids) in sorted(op_spans(spans).items()):
        wall = root["end_ms"] - root["start_ms"]
        covered, cursor = 0.0, root["start_ms"]
        for k in sorted(kids, key=lambda s: s["start_ms"]):
            if k["start_ms"] < root["start_ms"] or k["end_ms"] > root["end_ms"]:
                raise BenchError("%s op %d: span %s escapes its op" %
                                 (workload, op_id, k["name"]))
            start = max(cursor, k["start_ms"])
            covered += max(0.0, k["end_ms"] - start)
            cursor = max(cursor, k["end_ms"])
        unattributed = wall - covered
        total = sum(k["end_ms"] - k["start_ms"] for k in kids) + unattributed
        if abs(total - wall) > RECONCILE_TOL * wall or \
                unattributed > UNATTRIBUTED_MAX * wall:
            raise BenchError(
                "%s op %d does not reconcile: wall %.3f ms, spans+unattributed"
                " %.3f ms, unattributed %.3f ms (tolerance %.0f%%, max %.0f%%)"
                % (workload, op_id, wall, total, unattributed,
                   100 * RECONCILE_TOL, 100 * UNATTRIBUTED_MAX))
        layers = {"op": wall, "unattributed": unattributed}
        for k in kids:
            layers[k["name"]] = layers.get(k["name"], 0.0) + \
                k["end_ms"] - k["start_ms"]
        per_op.append(layers)
    if not per_op:
        raise BenchError("%s: traced replay recorded no ops" % workload)
    return per_op


def replay(m, w, cmd):
    """Runs a traced in-process replay of the workload's op and folds its
    spans into the per-layer metrics (medians over ops)."""
    out = run([TOOL] + cmd, w.work)
    data = json.loads(out)
    per_op = reconcile(w.name, data["spans"])

    def med(key, rows=per_op):
        return statistics.median(r.get(key, 0.0) for r in rows)

    m["%s.unattributed_ms" % w.name] = med("unattributed")
    span_metric = {"store.load": "store.load_ms", "rdf.merge": "rdf.merge_ms",
                   "core.refine": "core.refine_ms",
                   "core.stats": "core.stats_ms",
                   "service.render": "service.render_ms",
                   "service.acquire": "service.acquire_ms",
                   "store.fragment_decode": "store.fragment_decode_ms",
                   "stream.apply": "stream.apply_ms"}
    for span, metric in span_metric.items():
        m[metric] = med(span)
    ops = data["ops"]
    if cmd[0] == "trace-align":
        # The replay must reach the shipped binary's answer.
        got = align_answer(data["render"])
        if got != w.expected:
            raise BenchError("%s: traced replay answered %r, the program %r"
                             % (w.name, got, w.expected))
        for key in ("enrich_ms", "overlap_index_ms", "match_ms",
                    "refine_iterations"):
            m["core." + key] = med(key, ops)
    if "--cached" in cmd:  # the daemon's path: loads only on cache misses
        m["store.load_ms"] = med("load_ms", ops)


# ------------------------------------------------------------------- main

def percentile(xs, pct):
    """Nearest-rank percentile of sorted `xs`."""
    return xs[max(1, math.ceil(pct * len(xs) / 100)) - 1]


def tail(xs):
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample. Returns (percentile, value)."""
    n = len(xs)
    if n <= 20:  # too few samples for a tail: report the median
        return 50.0, percentile(xs, 50)
    return 100.0 * (n - 10) / n, xs[n - 11]


def mount_fs(path):
    """Filesystem type of the mount holding `path`."""
    best, fs = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            _, point, kind = line.split()[:3]
            if path.startswith(point) and len(point) > len(best):
                best, fs = point, kind
    return fs


def end_to_end_metrics(w, res, setups, lat_ms, tail_ms):
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(res.lat_s) / res.wall_s,
        "p50_ms": percentile(lat_ms, 50),
        "tail_ms": tail_ms,
        "peak_rss_mb": res.peak_rss_kb / 1024,
        "disk_mb": w.disk_bytes() / 2**20,
    }


def layer_metrics(w, res, m, refs):
    """Fills in the per-layer metrics not taken from the timed loop."""
    for nt, _ in w.snapshots:
        out = run([TOOL, "trace-build", nt, "trace.snap"], w.work)
        spans = {s["name"]: s["end_ms"] - s["start_ms"]
                 for s in json.loads(out)["spans"]}
        m["parser.parse_ms"] += spans["parser.parse"]
        m["store.save_ms"] += spans["store.save"]
    m["store.snapshot_mb"] = w.disk_bytes() / 2**20
    m["service.start_ms"] = w.setup_spans.get("service.start_ms", 0.0)
    m["service.open_ms"] = w.setup_spans.get("service.open_ms", 0.0)
    m["host.ref_ms"] = statistics.median(refs)
    # Compare with p50_ms of an untraced run for the tracing overhead.
    m["trace.op_p50_ms"] = statistics.median(res.lat_s) * 1e3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    build()
    work = os.path.join(ROOT, ".bench_run", "%s-%d" % (args.workload,
                                                       os.getpid()))
    os.makedirs(work)
    w = WORKLOADS[args.workload](args, work)
    try:
        refs = [host_ref_ms()]
        w.generate()
        repeats = 1 if args.trace else SETUP_REPEATS
        setups = [w.setup(keep=i == repeats - 1) for i in range(repeats)]
        # Two halves of the closed loop with the host probe in between, so
        # the probe never competes with a timed op.
        res = Outcome()
        w.open_load(res)
        res.wall_s += w.loop(args.seconds / 2, res)
        refs.append(host_ref_ms())
        res.wall_s += w.loop(args.seconds / 2, res)
        w.close_load(res)
        # A layer the workload does not exercise reads 0.
        values = {name: 0.0 for name in units}
        if args.trace:
            w.trace(res, values)
        w.stop()
        refs.append(host_ref_ms())
        # A failed op counts as missing every latency.
        lat_ms = sorted(x * 1e3 for x in res.lat_s) + \
            [float("inf")] * res.failed
        tail_pct, tail_ms = tail(lat_ms)
        if args.trace:
            layer_metrics(w, res, values, refs)
        else:
            values = end_to_end_metrics(w, res, setups, lat_ms, tail_ms)
        if set(values) != set(units):
            raise BenchError("metrics differ from BENCHMARK.json: %s" %
                             sorted(set(values) ^ set(units)))
        info = {
            "workload": w.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "inputs": w.inputs,
            "snapshots": [{k: b[k] for k in ("output", "nodes", "triples")}
                          for b in w.build_info],
            "samples": len(res.lat_s),
            "tail_percentile": tail_pct,
            "setup_s_runs": setups, "host_ref_ms": refs,
            "filesystem": mount_fs(work),
            "flush_policy": "atomic writer fsyncs every artifact; no cache "
                            "drop between ops",
            "failures": res.notes,
        }
    finally:
        w.stop()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"info": info}))
    metrics = {k: {"value": v if math.isfinite(v) else 0.0, "unit": units[k]}
               for k, v in values.items()}
    print(json.dumps({"correct": res.failed == 0,
                      "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("error: %s: %s" % (type(e).__name__, e))
        sys.exit(1)
