#!/usr/bin/env python3
"""CI validator for espnuca observability output.

Usage:
    check_trace.py TRACE_JSON [RUN_JSON]
    check_trace.py --counters TRACE_JSON
    check_trace.py --swarm SWARM_TRACE_JSON
    check_trace.py --ledger LEDGER_JSONL [LEDGER_JSONL ...]

Default mode: TRACE_JSON is a Chrome/Perfetto trace_event file written
by --trace-out. The check fails unless the file parses, contains at
least one *complete* transaction span ("ph":"X", cat "tx"), and that
span correlates (via args.tx) with at least one bank-probe and one
mesh-hop event — i.e. a full transaction lifecycle was captured.
RUN_JSON, if given, is the --json --stats output of the same run: the
"name value" stats dump, then the run document on the last line. The
document must carry a non-empty "timeseries" of {"cycle", "counters"}
samples whose last sample has, for every bank, the StatsRegistry names
bank.<b>.nmax and the three set-class EMAs bank.<b>.hr_ref / hr_conv /
hr_exp, plus the system series in EXPECTED_COUNTERS. The last sample
holds the drained state, so its sim.cycles and sim.events must equal
the stats dump's and the document's "stats" block's: sampling is not
an event and must not move the clock or the event count.

--counters: the same trace must additionally carry the epoch-telemetry
counter tracks (pid 5, "ph":"C", one track per sampled registry name):
every series in EXPECTED_COUNTERS present, at least one sample each,
timestamps non-decreasing per series.

--swarm: validates an espnuca-top --perfetto swarm timeline: per-shard
process_name metadata, at least one completed-point slice ("ph":"X",
cat "point") carrying a 16-hex args.point_hash, and non-negative
durations.

--ledger: validates espnuca-events-v1 JSONL ledgers: every line's
CRC32C content trailer verifies (torn tails are reported, not
crashed on), seq is strictly increasing per writer process (a
restarted worker appends to the same shard ledger with a fresh pid
and a fresh seq space), all records agree on one run id, and every
point-start reaches a terminal event (point-finish / point-skip /
point-quarantine-skip / supervisor point-quarantine) across the
given files.
"""

import json
import sys

EXPECTED_COUNTERS = {
    "proto.in_flight", "mesh.flits", "mesh.link_wait", "mc.0.accesses",
}

BANK_SERIES = ("nmax", "hr_ref", "hr_conv", "hr_exp")

TERMINAL_EVENTS = {
    "point-finish", "point-skip", "point-quarantine-skip",
    "point-quarantine",
}


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: str) -> None:
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents array")

    spans = [e for e in events
             if e.get("ph") == "X" and e.get("cat") == "tx"]
    if not spans:
        fail(f"{path}: no complete transaction span (ph=X, cat=tx)")

    probe_txs = {e["args"]["tx"] for e in events
                 if e.get("name") == "probe" and "args" in e}
    hop_txs = {e["args"]["tx"] for e in events
               if e.get("name") == "hop" and "args" in e}
    full = [s for s in spans
            if s["args"]["tx"] in probe_txs and s["args"]["tx"] in hop_txs]
    if not full:
        fail(f"{path}: no span correlates with both a bank probe "
             f"and a mesh hop")

    for s in full[:1]:
        if s.get("dur", -1) < 0:
            fail(f"{path}: span has no duration")
    print(f"check_trace: OK: {len(spans)} span(s), "
          f"{len(full)} with full probe+hop lifecycle, "
          f"{len(events)} event(s) total")


def check_run(path: str) -> None:
    with open(path) as f:
        lines = f.read().rstrip("\n").split("\n")
    doc = json.loads(lines[-1])
    dump = {}
    for line in lines[:-1]:
        name, _, value = line.partition(" ")
        dump[name] = value
    runs = doc["runs"] if isinstance(doc, dict) and "runs" in doc else doc
    if not isinstance(runs, list) or not runs:
        fail(f"{path}: no runs array")
    series = runs[0].get("timeseries")
    if not series:
        fail(f"{path}: run 0 has no (or an empty) timeseries")
    if any(not isinstance(s.get("cycle"), int) for s in series):
        fail(f"{path}: a sample lacks its cycle")
    counters = series[-1].get("counters")
    if not counters:
        fail(f"{path}: last sample has no counters object")
    banks = {name.split(".")[1] for name in counters
             if name.startswith("bank.") and name.endswith(".demand")}
    if not banks:
        fail(f"{path}: last sample has no bank.<b>.demand series")
    needed = EXPECTED_COUNTERS | {f"bank.{b}.{leaf}" for b in banks
                                  for leaf in BANK_SERIES}
    missing = needed - set(counters)
    if missing:
        fail(f"{path}: timeseries missing {sorted(missing)[:8]}")
    block = runs[0].get("stats", {}).get("counters", {})
    if not dump or not block:
        fail(f"{path}: no stats dump and stats block (run with --stats)")
    for name in ("sim.cycles", "sim.events"):
        if not (str(counters.get(name)) == dump.get(name) and
                counters.get(name) == block.get(name)):
            fail(f"{path}: last sample {name} {counters.get(name)} != "
                 f"stats dump {dump.get(name)} / block {block.get(name)}")
    print(f"check_trace: OK: {len(series)} sample(s), "
          f"{len(banks)} bank(s) with nmax + set-class EMAs, "
          f"last sample at the drained sim.cycles/sim.events")


def check_counters(path: str) -> None:
    """Epoch-telemetry counter tracks (pid 5, ph=C) in a run trace."""
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents array")
    names = {e.get("args", {}).get("name") for e in events
             if e.get("ph") == "M" and e.get("name") == "process_name"}
    if "counters" not in names:
        fail(f"{path}: no 'counters' process_name metadata (pid 5)")
    series: dict = {}
    for e in events:
        if e.get("ph") != "C" or e.get("pid") != 5:
            continue
        name = e.get("name")
        args = e.get("args", {})
        if name not in args:
            fail(f"{path}: counter event {name!r} lacks its own series "
                 f"value in args")
        series.setdefault(name, []).append((e.get("ts"), args[name]))
    missing = EXPECTED_COUNTERS - set(series)
    if missing:
        fail(f"{path}: counter series missing {sorted(missing)}")
    for name, points in series.items():
        ts = [t for t, _ in points]
        if ts != sorted(ts):
            fail(f"{path}: counter {name!r} timestamps not "
                 f"non-decreasing")
        if any(v < 0 for _, v in points):
            fail(f"{path}: counter {name!r} has a negative sample")
    n = sum(len(p) for p in series.values())
    print(f"check_trace: OK: {len(series)} counter track(s), "
          f"{n} sample(s)")


def check_swarm(path: str) -> None:
    """espnuca-top --perfetto swarm timeline."""
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents array")
    tracks = {e.get("args", {}).get("name") for e in events
              if e.get("ph") == "M" and e.get("name") == "process_name"}
    shards = {t for t in tracks if t and t.startswith("shard-")}
    if "supervisor" not in tracks:
        fail(f"{path}: no supervisor track metadata")
    if not shards:
        fail(f"{path}: no shard-<i> track metadata")
    slices = [e for e in events
              if e.get("ph") == "X" and e.get("cat") == "point"]
    if not slices:
        fail(f"{path}: no completed-point slice (ph=X, cat=point)")
    for s in slices:
        h = s.get("args", {}).get("point_hash", "")
        if len(h) != 16 or any(c not in "0123456789abcdef" for c in h):
            fail(f"{path}: slice {s.get('name')!r} has a malformed "
                 f"point_hash {h!r}")
        if s.get("dur", -1) < 0:
            fail(f"{path}: slice {s.get('name')!r} has no duration")
    print(f"check_trace: OK: {len(shards)} shard track(s), "
          f"{len(slices)} point slice(s)")


def crc32c(data: bytes) -> int:
    """CRC-32C (Castagnoli), reflected — the trailer algorithm of
    common/crc32c.hpp. zlib.crc32 is CRC-32/IEEE, a different
    polynomial, so the table is built here."""
    table = getattr(crc32c, "_table", None)
    if table is None:
        table = []
        for i in range(256):
            c = i
            for _ in range(8):
                c = (c >> 1) ^ 0x82F63B78 if c & 1 else c >> 1
            table.append(c)
        crc32c._table = table
    crc = 0xFFFFFFFF
    for b in data:
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def split_crc_trailer(line: str):
    """Strip the ,"crc32c":"hhhhhhhh" content trailer (json.hpp
    framing). Returns (body, ok)."""
    suffix_len = len(',"crc32c":"00000000"}')
    if len(line) < suffix_len or not line.endswith("\"}"):
        return None, False
    tag = line[-suffix_len:-suffix_len + len(',"crc32c":"')]
    if tag != ',"crc32c":"':
        return None, False
    hexpart = line[-10:-2]
    body = line[:-suffix_len] + "}"
    try:
        stored = int(hexpart, 16)
    except ValueError:
        return None, False
    return (body, True) if crc32c(body.encode()) == stored else (None,
                                                                 False)


def check_ledger(paths: list) -> None:
    """espnuca-events-v1 JSONL ledgers: CRC-valid lines, monotonic seq
    per writer, one run id, every started point reaches a terminal
    event across all given files."""
    run_ids = set()
    started: dict = {}
    terminal = set()
    total = 0
    torn = 0
    for path in paths:
        last_seq: dict = {}  # per-pid; restarts reuse the file
        with open(path) as f:
            lines = [ln.rstrip("\n") for ln in f if ln.strip()]
        if not lines:
            fail(f"{path}: empty ledger")
        for i, line in enumerate(lines):
            body, ok = split_crc_trailer(line)
            if not ok:
                # A SIGKILL can tear at most the final line of a
                # writer's file; anywhere else is corruption.
                if i == len(lines) - 1:
                    torn += 1
                    continue
                fail(f"{path}:{i + 1}: CRC mismatch on a non-final "
                     f"line")
            rec = json.loads(body)
            if rec.get("schema") != "espnuca-events-v1":
                fail(f"{path}:{i + 1}: wrong schema "
                     f"{rec.get('schema')!r}")
            for field in ("run", "seq", "wall_ms", "pid", "role",
                          "shard", "event", "build"):
                if field not in rec:
                    fail(f"{path}:{i + 1}: missing field {field!r}")
            pid = rec["pid"]
            if rec["seq"] <= last_seq.get(pid, 0):
                fail(f"{path}:{i + 1}: seq {rec['seq']} of pid {pid} "
                     f"not above {last_seq[pid]}")
            last_seq[pid] = rec["seq"]
            run_ids.add(rec["run"])
            total += 1
            ev = rec["event"]
            h = rec.get("point_hash")
            if h is not None:
                if len(h) != 16 or any(c not in "0123456789abcdef"
                                       for c in h):
                    fail(f"{path}:{i + 1}: malformed point_hash {h!r}")
                if ev == "point-start":
                    started[h] = f"{path}:{i + 1}"
                elif ev in TERMINAL_EVENTS:
                    terminal.add(h)
    if len(run_ids) != 1:
        fail(f"ledgers disagree on run id: {sorted(run_ids)}")
    unresolved = {h: where for h, where in started.items()
                  if h not in terminal}
    if unresolved:
        sample = "; ".join(f"{h} (started at {w})"
                           for h, w in list(unresolved.items())[:8])
        fail(f"{len(unresolved)} started point(s) never reached a "
             f"terminal ledger event: {sample}")
    print(f"check_trace: OK: {total} ledger record(s) across "
          f"{len(paths)} file(s), run {run_ids.pop()}, "
          f"{len(started)} point-start(s) all terminal, "
          f"{torn} torn tail line(s) tolerated")


def main(argv: list) -> None:
    if len(argv) >= 2 and argv[1] == "--counters":
        if len(argv) != 3:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        check_counters(argv[2])
        return
    if len(argv) >= 2 and argv[1] == "--swarm":
        if len(argv) != 3:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        check_swarm(argv[2])
        return
    if len(argv) >= 2 and argv[1] == "--ledger":
        if len(argv) < 3:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        check_ledger(argv[2:])
        return
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    check_trace(argv[1])
    if len(argv) == 3:
        check_run(argv[2])


if __name__ == "__main__":
    main(sys.argv)
