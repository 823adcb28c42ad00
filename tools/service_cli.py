#!/usr/bin/env python
"""Submit a simulation sweep to the service and stream its results.

The CLI front end of :mod:`repro.service`: builds an (arch x config)
grid, submits every point to a :class:`~repro.service.SimulationService`
(persistent workers, shared-memory dataset, on-disk result cache shared
with ``ExperimentEngine``), then streams results back in *completion*
order with live progress — fast points print while slow ones still
simulate.  Ctrl-C cancels everything outstanding and reports the
partial sweep.

Usage::

    PYTHONPATH=src python tools/service_cli.py --rows 32768
    PYTHONPATH=src python tools/service_cli.py --archs hive,hipe --op 256 \
        --unroll 8 --rows 262144 --jobs 4
    PYTHONPATH=src python tools/service_cli.py --rows 8192 --cancel-after 2
    PYTHONPATH=src python tools/service_cli.py --status-only --rows 8192
    PYTHONPATH=src python tools/service_cli.py --show-checkpoints

    # serve the HTTP API (SIGTERM = graceful drain)...
    PYTHONPATH=src python tools/service_cli.py --serve 127.0.0.1:8642
    # ...and sweep against it from another shell/host
    PYTHONPATH=src python tools/service_cli.py --http http://127.0.0.1:8642 \
        --rows 32768
    PYTHONPATH=src python tools/service_cli.py --http http://127.0.0.1:8642 \
        --healthz
    PYTHONPATH=src python tools/service_cli.py --http http://127.0.0.1:8642 \
        --drain

``--cancel-after N`` cancels every still-outstanding job after N
completions (exercising the cancellation path); ``--status-only``
submits, prints one status snapshot per second until done, and never
streams — the ticket/status/cancel surface without the iterator.
``--show-checkpoints`` lists the resumable pass-boundary snapshots of
interrupted points (and exits); a streamed result that recovered from a
crash prints ``resumed from pass K``.

``--serve HOST:PORT`` turns this process into a long-lived service
host: one :class:`SimulationService` behind the stdlib HTTP API, with
SIGTERM/SIGINT wired to graceful drain (running jobs checkpoint-stop;
a restarted host resumes them).  ``--http URL`` makes the sweep a
*client* of such a host instead of spawning workers locally —
overload answers (HTTP 429) are retried with the server-suggested
backoff, a draining host (503) aborts with a clear message.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def build_points(args):
    from repro.codegen.base import ScanConfig

    points = []
    for arch in args.archs.split(","):
        arch = arch.strip().lower()
        if not arch:
            continue
        op = args.op or (64 if arch == "x86" else 256)
        points.append((arch, ScanConfig(args.layout, args.strategy, op,
                                        args.unroll)))
    if not points:
        raise SystemExit("no architectures given")
    return points


def show_checkpoints(checkpoint_dir=None) -> int:
    """Print every resumable pass-boundary snapshot in the sidecar."""
    from repro.sim.checkpoint import CheckpointStore
    from repro.sim.engine import cache_directories

    store = CheckpointStore(cache_directories(checkpoint_dir=checkpoint_dir)[1])
    entries = store.entries()
    print(f"checkpoint sidecar: {store.directory}")
    if not entries:
        print("no resumable checkpoints (every point either finished or "
              "never reached a pass boundary)")
        return 0
    for entry in entries:
        meta = entry.get("meta") or {}
        age = time.time() - entry.get("saved_at", time.time())
        print(f"  {entry['key'][:16]}…  pass={entry['pass']} "
              f"runs={entry['runs']} "
              f"arch={meta.get('arch', '?')} rows={meta.get('rows', '?')} "
              f"op={meta.get('op_bytes', '?')}B "
              f"{entry['size'] / 1e6:.1f} MB  saved {age:.0f}s ago")
    print(f"{len(entries)} resumable point(s); a resubmitted point resumes "
          f"from its last completed pass")
    return 0


def serve(address: str, args) -> int:
    """Host the HTTP API until SIGTERM/SIGINT drains it."""
    from repro.service import (
        ServiceHTTPServer,
        SimulationService,
        install_drain_handler,
    )

    host, _, port = address.rpartition(":")
    host = host or "127.0.0.1"
    service = SimulationService(
        jobs=args.jobs, use_cache=False if args.no_cache else None,
        retries=args.retries, timeout=args.timeout,
        checkpoint_dir=args.checkpoint_dir,
    )
    server = ServiceHTTPServer((host, int(port)), service)
    install_drain_handler(service, server)
    bound = server.server_address
    print(f"serving on http://{bound[0]}:{bound[1]} "
          f"(workers={service.jobs}; SIGTERM drains gracefully)",
          flush=True)
    try:
        # Serve on the main thread: the drain handler's shutdown()
        # (issued from its helper thread) unblocks this loop.
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close(drain=True, force=True)
        server.server_close()
    print(f"drained: {service.drained_jobs} job(s) checkpoint-stopped")
    return 0


def http_sweep(args) -> int:
    """Run the sweep as a *client* of a remote service host."""
    from repro.service import HTTPServiceError, ServiceClient

    client = ServiceClient(args.http)
    if args.healthz:
        import json

        print(json.dumps(client.healthz(), indent=2))
        return 0
    if args.drain:
        summary = client.drain()
        print(f"drain requested: {summary}")
        return 0

    points = build_points(args)
    start = time.perf_counter()
    job_ids = []
    for arch, scan in points:
        while True:
            try:
                record = client.submit(
                    arch, scan, args.rows, seed=args.seed,
                    deadline=args.deadline,
                )
            except HTTPServiceError as exc:
                if exc.overloaded:
                    delay = float(exc.payload.get("retry_after", 1.0))
                    print(f"overloaded ({exc.payload.get('reason')}); "
                          f"retrying in {delay:g}s", file=sys.stderr)
                    time.sleep(delay)
                    continue
                if exc.draining:
                    print("service is draining; aborting", file=sys.stderr)
                    return 1
                raise
            job_ids.append(record["id"])
            print(f"submitted #{record['id']} {record['label']} "
                  f"rows={record['rows']}")
            break
    records = client.wait(job_ids, timeout=args.timeout)
    failed = 0
    for n, record in enumerate(records, 1):
        elapsed = time.perf_counter() - start
        detail = ""
        if record["state"] == "done":
            detail = (f"cycles={record['result']['cycles']:,} "
                      f"verified={record['result']['verified']}")
            if record.get("resumed_from_pass") is not None:
                detail += f" resumed from pass {record['resumed_from_pass']}"
        elif record.get("error"):
            detail = record["error"].strip().splitlines()[-1]
            failed += 1
        print(f"[{n}/{len(records)}] {elapsed:7.2f}s {record['label']:<14} "
              f"{record['state']:<9} {detail}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--archs", default="x86,hmc,hive,hipe",
                        help="comma-separated architectures (default: all four)")
    parser.add_argument("--rows", type=int, default=32_768)
    parser.add_argument("--op", type=int, default=None,
                        help="operation bytes (default: 64 on x86, 256 on PIM)")
    parser.add_argument("--unroll", type=int, default=1)
    parser.add_argument("--layout", default="dsm", choices=["nsm", "dsm"])
    parser.add_argument("--strategy", default="column", choices=["tuple", "column"])
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker slots (default: REPRO_JOBS or CPU count)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-attempt timeout in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="retry budget for crashed workers (default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--cancel-after", type=int, default=None, metavar="N",
                        help="cancel outstanding jobs after N completions")
    parser.add_argument("--status-only", action="store_true",
                        help="poll status snapshots instead of streaming")
    parser.add_argument("--show-checkpoints", action="store_true",
                        help="list resumable pass-boundary checkpoints and exit")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="checkpoint sidecar directory (default: "
                             "<cache dir>/checkpoints or REPRO_CHECKPOINT_DIR)")
    parser.add_argument("--serve", default=None, metavar="HOST:PORT",
                        help="host the HTTP API instead of sweeping "
                             "(SIGTERM drains gracefully)")
    parser.add_argument("--http", default=None, metavar="URL",
                        help="sweep against a remote service host instead "
                             "of spawning local workers")
    parser.add_argument("--healthz", action="store_true",
                        help="with --http: print the health snapshot and exit")
    parser.add_argument("--drain", action="store_true",
                        help="with --http: request a graceful drain and exit")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-job deadline in seconds (past it the job "
                             "checkpoint-stops and expires)")
    args = parser.parse_args()

    from repro.service import JobState, SimulationService
    from repro.sim.results import format_table

    if args.show_checkpoints:
        return show_checkpoints(args.checkpoint_dir)
    if args.serve:
        return serve(args.serve, args)
    if args.http:
        return http_sweep(args)

    points = build_points(args)
    service = SimulationService(
        jobs=args.jobs, use_cache=False if args.no_cache else None,
        retries=args.retries, timeout=args.timeout,
        checkpoint_dir=args.checkpoint_dir,
    )
    start = time.perf_counter()
    exit_code = 0
    completed = []
    try:
        tickets = [
            service.submit(arch, scan, args.rows, seed=args.seed)
            for arch, scan in points
        ]
        total = len(tickets)
        for ticket in tickets:
            print(f"submitted #{ticket.id} {ticket.label} rows={ticket.rows}"
                  f"{'' if ticket.key is None else f' key={ticket.key[:12]}'}")

        if args.status_only:
            while True:
                progress = service.progress(tickets)
                outstanding = progress["pending"] + progress["running"]
                print(f"status: {progress}")
                if not outstanding:
                    break
                time.sleep(1.0)
            records = [service.status(t) for t in tickets]
        else:
            records = []
            for record in service.stream(tickets):
                records.append(record)
                elapsed = time.perf_counter() - start
                n = len(records)
                how = ("cache" if record.cached else
                       f"simulated x{record.attempts}")
                detail = ""
                if record.state is JobState.DONE:
                    detail = (f"cycles={record.result.cycles:,} "
                              f"verified={record.result.verified}")
                    if record.resumed_from_pass is not None:
                        detail += (f" resumed from pass "
                                   f"{record.resumed_from_pass}")
                elif record.error:
                    detail = record.error.strip().splitlines()[-1]
                print(f"[{n}/{total}] {elapsed:7.2f}s {record.ticket.label:<14} "
                      f"{record.state.value:<9} ({how}) {detail}")
                if args.cancel_after is not None and n >= args.cancel_after:
                    for other in tickets:
                        service.cancel(other)

        completed = [r for r in records if r.state is JobState.DONE]
        failed = [r for r in records if r.state is JobState.FAILED]
        if failed:
            exit_code = 1
            for record in failed:
                print(f"FAILED {record.ticket.label}: {record.error}",
                      file=sys.stderr)
    except KeyboardInterrupt:
        print("\ninterrupted: cancelling outstanding jobs", file=sys.stderr)
        exit_code = 130
    finally:
        service.close(force=True)

    if completed:
        print()
        print(format_table([r.result for r in completed],
                           f"service sweep ({args.rows:,} rows)"))
    wall = time.perf_counter() - start
    print(f"\n{len(completed)} done, retried {service.retried_jobs}, "
          f"resumed {service.resumed_jobs}, "
          f"cache hits {service.cache_hits}, "
          f"datasets published {service.datasets_published}, "
          f"wall {wall:.2f}s")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
