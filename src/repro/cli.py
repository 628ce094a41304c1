"""Command-line interface: ``python -m repro <command> [options]``.

Regenerates the paper's tables, figures, ablations and extensions from a
shell, checking each against the paper's claims, without writing a
script::

    python -m repro paper
    python -m repro paper --only table1 table4 fig3
    python -m repro paper --scale full --jobs 0
    python -m repro run BerkeleyDB --threads 16 --units 2 --signature bs \\
        --bits 2048
    python -m repro run SharedCounter --threads 8 --verify
    python -m repro sweep Mp3d --mode sizes --sizes 64 2048 --jobs 4
    python -m repro sweep Mp3d --mode figure4 --threads 8 --units 2
    python -m repro bench --check
    python -m repro bench --suite fig4_cell --label after-tuning
    python -m repro trace SharedCounter --threads 4 --out counter.trace.json
    python -m repro lint
    python -m repro lint --self --format json
    python -m repro mc --fabric directory --state-cap 5000
    python -m repro mc --fabric snooping --mutate eager-e-grant \\
        --dump counterexample.json

``paper`` prints each experiment's table(s) and then one status line:
``PASS``, ``FAIL <name>: <claim>`` per broken claim, ``ERROR <name>:
<Type>: <message>`` when the experiment raised, or ``UNCHECKED`` when its
shape claims need ``--scale full``. It exits 1 if any experiment failed
or raised, after running all of them.

The global ``--json`` flag switches every command from rendered tables to
structured JSON records (``RunResult``/``SweepResult`` serializations or
experiment row dicts) for downstream tooling. ``sweep`` stores results in
the SQLite run store that ``serve`` and ``cache`` also open (``--db``;
default ``$REPRO_CACHE_DIR/sweeps.db`` or ``~/.cache/repro/sweeps.db``):
repeat an invocation and only missing cells execute. ``trace`` runs one
workload with the observability bus attached and writes a Chrome Trace
Event JSON (open it in Perfetto or ``chrome://tracing``); ``sweep
--trace-dir DIR`` does the same per variant.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback
from typing import List, Optional

from repro.common.config import SignatureKind, SyncMode, SystemConfig
from repro.svc.spec import SWEEP_MODES


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_db(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", default=None,
                        help="SQLite run store (default: "
                             "$REPRO_CACHE_DIR/sweeps.db or "
                             "~/.cache/repro/sweeps.db)")


def _db_path(args) -> str:
    from repro.svc.repository import default_db_path
    return args.db or default_db_path()


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_nonneg_int, default=1,
                        help="parallel worker processes (0 = one per CPU; "
                             "default: 1, serial)")


def _emit_json(payload) -> int:
    """Print one JSON document (dataclass rows are serialized as dicts)."""
    def default(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return dataclasses.asdict(obj)
        raise TypeError(
            f"not JSON serializable: {type(obj).__name__}")
    print(json.dumps(payload, indent=2, default=default))
    return 0


def _cmd_paper(args) -> int:
    """Run, print and check the paper's experiments; exit 1 if any failed
    a claim or raised, after running all of them."""
    from repro.harness import experiments as E
    from repro.harness.sweep import SweepExecutionError

    scale = E.QUICK if args.scale == "quick" else E.FULL
    payload = {}
    failed = False
    for name in args.only or list(E.EXPERIMENTS):
        run, render, check = E.EXPERIMENTS[name]
        try:
            rows = run(scale, args.seed, args.jobs)
            failures = check(rows, scale)
        except Exception as exc:  # report it; the next experiment still runs
            traceback.print_exc()
            if isinstance(exc, SweepExecutionError):  # cell tracebacks
                for key, reason in exc.failures.items():
                    print(f"  {key}: {reason}", file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
            payload[name] = {"rows": None, "failures": None, "error": error}
            failed = True
            if not args.json:
                print(f"ERROR {name}: {error}\n", flush=True)
            continue
        payload[name] = {"rows": rows, "failures": failures}
        failed = failed or bool(failures)
        if args.json:
            continue
        print(render(rows))
        if failures is None:
            print(f"UNCHECKED {name}: shape claims are not checked at "
                  "quick scale")
        elif failures:
            for claim in failures:
                print(f"FAIL {name}: {claim}")
        else:
            print(f"PASS {name}")
        print(flush=True)
    if args.json:
        _emit_json(payload)
    return 1 if failed else 0


def _workloads():
    """Workloads ``run`` and ``trace`` accept: the Table 2 benchmarks plus
    the microbenchmarks (small enough to make readable traces)."""
    from repro.workloads import (PAPER_SUITE, BigFootprint, NestedUpdate,
                                 RepeatStores, SharedCounter)
    return {cls.name: cls for cls in (*PAPER_SUITE, SharedCounter,
                                      NestedUpdate, BigFootprint,
                                      RepeatStores)}


class _ExperimentNames:
    """The ``paper --only`` choices, read from the experiment registry on
    first use: argparse tests a value against them and prints them in
    ``--help``, but building the parser (given a ``metavar``) never
    iterates them, so other commands do not import the paper module."""

    @staticmethod
    def _names():
        from repro.harness.experiments import EXPERIMENTS
        return EXPERIMENTS

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __iter__(self):
        return iter(self._names())


def _cmd_run(args) -> int:
    from repro.harness.runner import run_workload

    catalog = _workloads()
    if args.workload not in catalog:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(catalog)}", file=sys.stderr)
        return 2
    cfg = SystemConfig.default()
    if args.locks:
        cfg = cfg.with_sync(SyncMode.LOCKS)
    else:
        cfg = cfg.with_signature(SignatureKind(args.signature),
                                 bits=args.bits)
    workload = catalog[args.workload](
        num_threads=args.threads, units_per_thread=args.units,
        seed=args.seed)
    # run_workload labels the run itself ("locks" for the lock baseline,
    # the signature name otherwise), so output is uniform across modes.
    result = run_workload(cfg, workload, seed=args.seed, verify=args.verify)
    if args.json:
        return _emit_json(result.to_dict())
    print(f"workload   : {workload.describe()}")
    print(f"config     : {result.config_label}")
    print(f"cycles     : {result.cycles:,}")
    print(f"units      : {result.units}")
    print(f"commits    : {result.commits}")
    print(f"aborts     : {result.aborts}")
    print(f"stalls     : {result.stalls}")
    print(f"fp conflict: {result.false_positive_pct:.1f}%")
    if args.verify:
        report = result.verify_report
        if report is not None and report.disabled_reason:
            print(f"verify     : disabled ({report.disabled_reason})")
        else:
            print(f"verify     : {len(result.verify_checks_run)} checker(s), "
                  f"{len(result.verify_violations)} violation(s)")
        for violation in result.verify_violations:
            print(f"  [{violation['rule']}] {violation['message']}")
        if result.verify_violations:
            return 1
    return 0


def _cannot_read(command: str, exc: OSError) -> int:
    """Report a missing or unreadable input path; usage error (exit 2)."""
    print(f"{command}: cannot read {exc.filename}: {exc.strerror}",
          file=sys.stderr)
    return 2


def _cmd_lint(args) -> int:
    from repro.analysis import lint_paths

    paths = args.paths
    if not paths:
        # Default target: the bundled workload definitions (with --self,
        # the whole package), wherever the package is installed.
        import repro.workloads
        package = repro if args.self else repro.workloads
        paths = [os.path.dirname(package.__file__)]
    try:
        findings = lint_paths(paths, "self" if args.self else "workload")
    except OSError as exc:
        return _cannot_read("lint", exc)
    # Findings always exit nonzero, whatever the output format.
    if args.format == "json" or args.json:
        _emit_json([f.to_dict() for f in findings])
        return 1 if findings else 0
    if findings:
        for finding in findings:
            print(finding)
        print(f"lint: {len(findings)} finding(s)")
        return 1
    print(f"clean: no findings in {', '.join(paths)}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import (analyze_paths, apply_baseline,
                                default_baseline_path, load_baseline,
                                render_sarif, render_text, rules_catalog)
    from repro.analysis.baseline import BaselineError

    paths = args.paths
    if not paths:
        import repro
        paths = [str(__import__("pathlib").Path(repro.__file__).parent)]
    try:
        findings = analyze_paths(paths)
    except OSError as exc:
        return _cannot_read("analyze", exc)

    if args.update_baseline:
        return _write_baseline(args, findings)

    new = findings
    baseline_path = default_baseline_path(args.baseline)
    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"analyze: {exc}", file=sys.stderr)
            return 2
        findings, new = apply_baseline(findings, baseline)

    if args.format == "sarif":
        print(render_sarif(findings, rules_catalog()))
    elif args.format == "json" or args.json:
        _emit_json([f.to_dict() for f in findings])
    else:
        print(render_text(findings))
    return 1 if new else 0


def _write_baseline(args, findings) -> int:
    """``--update-baseline``: rewrite the findings baseline, exit 2 on
    an unwritable target (a traceback here used to mask typos in CI
    paths)."""
    from repro.analysis import default_baseline_path, save_baseline

    target = args.baseline or default_baseline_path() or \
        "ANALYSIS_BASELINE.json"
    try:
        save_baseline(target, findings)
    except OSError as exc:
        print(f"analyze: cannot write baseline {target!r}: {exc}",
              file=sys.stderr)
        return 2
    print(f"analyze: baseline written to {target} "
          f"({len(findings)} finding(s))")
    return 0


def _cmd_mc(args) -> int:
    from repro.common.config import ConfigError
    from repro.mc import DEFAULT_STATE_CAP, ModelConfig, check
    from repro.verify.faults import MUTATIONS

    cap = (args.state_cap if args.state_cap is not None
           else DEFAULT_STATE_CAP)
    try:
        mcfg = ModelConfig(
            fabric=args.fabric, cores=args.cores, blocks=args.blocks,
            contexts_per_core=args.contexts, chips=args.chips,
            signature=SignatureKind(args.signature),
            signature_bits=args.bits, mutation=args.mutate)
        result = check(mcfg, state_cap=cap)
    except ConfigError as exc:
        print(f"mc: {exc}", file=sys.stderr)
        return 2
    if args.dump and result.counterexample is not None:
        result.counterexample.dump(args.dump)
    if args.json:
        _emit_json(result.to_dict())
        return 0 if result.clean else 1
    print(result.summary())
    if result.counterexample is not None:
        print()
        print(result.counterexample.render())
        if args.dump:
            print(f"\ncounterexample written to {args.dump}")
    if not result.clean and args.mutate:
        print(f"(mutation {args.mutate!r}: "
              f"{MUTATIONS[args.mutate].description})")
    return 0 if result.clean else 1


def _cmd_bench(args) -> int:
    from repro import perf

    names = args.suite or list(perf.SUITE)
    if args.report:
        records = perf.load_records(args.out_dir, names)
        if not records:
            print(f"no BENCH_*.json records in {args.out_dir!r}; "
                  "run `repro bench` first", file=sys.stderr)
            return 2
        if args.json:
            return _emit_json({name: record.to_dict()
                               for name, record in records.items()})
        print(perf.render_trajectory(records))
        return 0
    outcome = perf.run_suite(names=names, scale=args.scale,
                             label=args.label, out_dir=args.out_dir,
                             write=not args.no_write, check=args.check)
    if args.json:
        payload = {
            "measurements": {name: m.to_dict()
                             for name, m in outcome.measurements.items()},
            "regressions": {name: dataclasses.asdict(r)
                            for name, r in outcome.regressions.items()},
            "written": outcome.written,
            "exit_code": outcome.exit_code if args.check else 0,
        }
        _emit_json(payload)
        return outcome.exit_code if args.check else 0
    for name in names:
        m = outcome.measurements[name]
        print(f"{name:<18} {m.wall_seconds:8.3f}s  "
              f"cycles/s={m.cycles_per_second:>13,.0f}  "
              f"aborts/s={m.aborts_per_second:>9,.0f}  "
              f"cells/min={m.cells_per_minute:>8,.1f}  "
              f"events/s={m.events_per_second:>11,.0f}")
    for path in outcome.written:
        print(f"wrote {path}")
    if args.check:
        for report in outcome.regressions.values():
            for message in report.messages:
                print(message)
        return outcome.exit_code
    return 0


def _spec_from_args(args):
    """Build the service-grade :class:`SweepSpec` from sweep-style args.

    ``repro sweep`` and ``repro submit`` share this, so a sweep run
    locally and the same sweep submitted to a service are guaranteed to
    describe (and content-address) identical cells.
    """
    from repro.svc.spec import SweepSpec

    return SweepSpec(workload=args.workload, mode=args.mode,
                     threads=args.threads, units=args.units,
                     seed=args.seed, bits=args.bits, kind=args.kind,
                     sizes=tuple(args.sizes),
                     granularity=args.granularity,
                     timeout=getattr(args, "timeout", None),
                     retries=getattr(args, "retries", 1))


def _cmd_sweep(args) -> int:
    from repro.harness.sweep import SweepExecutionError, run_sweep
    from repro.svc.spec import SpecError

    try:
        spec = _spec_from_args(args)
    except SpecError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    variants = spec.variants()
    baseline = spec.baseline_label
    factory = spec.make_workload

    cache = None
    if not (args.no_cache or args.trace_dir is not None):
        from repro.svc.repository import RunRepository
        cache = RunRepository(_db_path(args))
    try:
        sweep = run_sweep(variants, factory, seed=args.seed,
                          baseline_label=baseline, jobs=args.jobs,
                          cache=cache, timeout=args.timeout,
                          retries=args.retries, trace_dir=args.trace_dir)
    except SweepExecutionError as exc:
        print(f"sweep failed: {len(exc.failures)} of {len(variants)} "
              f"cell(s), {len(exc.completed)} completed", file=sys.stderr)
        for label, reason in exc.failures.items():
            print(f"  {label}: {reason}", file=sys.stderr)
        return 1
    finally:
        if cache is not None:
            cache.close()
    if args.json:
        return _emit_json(sweep.to_dict())
    title = f"Sweep: {args.workload} ({args.mode})"
    print(sweep.table(title=title))
    cache_info = sweep.meta["cache"]
    print(f"jobs={sweep.meta['jobs']}  "
          f"wall={sweep.meta['wall_time']:.2f}s  "
          f"cache: {cache_info['hits']} hit(s), "
          f"{cache_info['misses']} miss(es)"
          + ("" if cache_info["enabled"] else " (disabled)"))
    if args.trace_dir is not None:
        print(f"trace artifacts: {args.trace_dir}/<variant>.trace.json")
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.svc.api import serve
    from repro.svc.service import SweepService

    db = _db_path(args)
    service = SweepService(db, workers=args.workers,
                           drain_timeout=args.drain_timeout)
    service.start()
    server = serve(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"sweep service listening on http://{host}:{port}  "
          f"(db={db}, workers={args.workers})", flush=True)

    def _request_stop(signum, frame):
        # serve_forever blocks this thread; shutdown() must come from
        # another one. Draining happens below, after the listener stops.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        print("listener closed; draining workers...", flush=True)
        service.shutdown(drain=True)
        print("drained.", flush=True)
    return 0


def _cmd_submit(args) -> int:
    from repro.svc.client import ClientError, ServiceClient
    from repro.svc.spec import SpecError

    try:
        spec = _spec_from_args(args)
    except SpecError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    client = ServiceClient(args.url)
    try:
        job = client.submit(spec.to_dict(), priority=args.priority)
        job_id = job["id"]
        if not args.json:
            print(f"submitted {job_id}: {len(job['cells'])} cell(s), "
                  f"state {job['state']}")
        if args.follow:
            for event in client.events(job_id, follow=True):
                print(json.dumps(event))
            job = client.job(job_id)
        elif args.wait:
            job = client.wait(job_id, timeout=args.wait_timeout)
    except ClientError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        return _emit_json(job)
    if args.wait or args.follow:
        counts = job.get("cell_counts", {})
        summary = ", ".join(f"{state}={n}"
                            for state, n in sorted(counts.items()) if n)
        print(f"job {job['id']}: {job['state']} ({summary})")
        if job.get("error"):
            print(f"error: {job['error']}", file=sys.stderr)
        return 0 if job["state"] == "done" else 1
    print(f"poll with: python -m repro jobs {job['id']}")
    return 0


def _cmd_jobs(args) -> int:
    from repro.svc.client import ClientError, ServiceClient

    client = ServiceClient(args.url)
    try:
        if args.job_id is None:
            jobs = client.jobs(state=args.state, limit=args.limit)
            if args.json:
                return _emit_json(jobs)
            if not jobs:
                print("no jobs")
                return 0
            for job in jobs:
                counts = job.get("cell_counts", {})
                cells = ", ".join(f"{state}={n}" for state, n
                                  in sorted(counts.items()) if n)
                print(f"{job['id']}  {job['state']:<9}  "
                      f"{job['spec']['workload']}/{job['spec']['mode']}  "
                      f"[{cells}]")
            return 0
        if args.cancel:
            job = client.cancel(args.job_id)
            if args.json:
                return _emit_json(job)
            print(f"job {job['id']}: {job['state']}")
            return 0
        if args.results:
            results = client.results(args.job_id)
            if args.json:
                return _emit_json(results)
            for label in sorted(results):
                entry = results[label]
                digest = (entry["digest"] or "")[:12]
                print(f"{label:<12} {entry['state']:<9} "
                      f"{entry['source'] or '-':<10} {digest}")
            return 0
        job = client.job(args.job_id)
        if args.json:
            return _emit_json(job)
        print(f"job    : {job['id']}")
        print(f"state  : {job['state']}")
        print(f"spec   : {job['spec']['workload']} mode={job['spec']['mode']}"
              f" threads={job['spec']['threads']}"
              f" units={job['spec']['units']}")
        for cell in job.get("cells", []):
            print(f"  {cell['label']:<12} {cell['state']:<9} "
                  f"{cell['source'] or '-'}")
        if job.get("error"):
            print(f"error  : {job['error']}")
        return 0
    except ClientError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def _cmd_cache(args) -> int:
    from repro.svc.repository import RunRepository

    db = _db_path(args)
    store = RunRepository(db)
    try:
        if args.action == "stats":
            # Commits not yet checkpointed into the database file live in
            # its write-ahead log, which stays while a connection is open.
            wal = db + "-wal"
            size = os.path.getsize(db) + (os.path.getsize(wal)
                                          if os.path.exists(wal) else 0)
            payload = {"db": db, "entries": store.run_count(),
                       "bytes": size}
            if args.json:
                return _emit_json(payload)
            print(f"db      : {payload['db']}")
            print(f"entries : {payload['entries']}")
            print(f"size    : {payload['bytes']:,} bytes")
            return 0
        # prune
        if args.max_entries is None:
            print("cache prune requires --max-entries N", file=sys.stderr)
            return 2
        before = store.run_count()
        removed = store.prune(args.max_entries)
        if args.json:
            return _emit_json({"db": db, "before": before,
                               "removed": removed,
                               "entries": store.run_count()})
        print(f"pruned {removed} of {before} entries "
              f"(cap {args.max_entries}, db {db})")
        return 0
    finally:
        store.close()


def _cmd_trace(args) -> int:
    from repro.harness.runner import run_workload
    from repro.obs.analysis import attribute_aborts, render_attribution
    from repro.obs.export import export_chrome_trace, export_jsonl

    catalog = _workloads()
    if args.workload not in catalog:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(catalog)}", file=sys.stderr)
        return 2
    cfg = SystemConfig.small() if args.small else SystemConfig.default()
    if args.locks:
        cfg = cfg.with_sync(SyncMode.LOCKS)
    else:
        cfg = cfg.with_signature(SignatureKind(args.signature),
                                 bits=args.bits)
    workload = catalog[args.workload](
        num_threads=args.threads, units_per_thread=args.units,
        seed=args.seed)
    result = run_workload(cfg, workload, seed=args.seed, trace=True,
                          trace_max_events=args.max_events,
                          trace_kinds=args.kinds)
    events = result.events or []
    out = args.out or f"{workload.name}.trace.json"
    label = f"{workload.name} [{result.config_label}]"
    n = export_chrome_trace(events, out, label=label)
    if args.jsonl:
        export_jsonl(events, args.jsonl)
    attribution = attribute_aborts(events)
    if args.json:
        payload = result.to_dict()
        payload["trace"] = {"path": out, "events": len(events),
                            "trace_events": n,
                            "jsonl": args.jsonl,
                            "attribution": attribution.to_dict()}
        return _emit_json(payload)
    print(f"workload   : {workload.describe()}")
    print(f"config     : {result.config_label}")
    print(f"cycles     : {result.cycles:,}")
    print(f"events     : {len(events)} captured, {n} trace entries")
    print(f"trace      : {out}  (open in Perfetto / chrome://tracing)")
    if args.jsonl:
        print(f"jsonl      : {args.jsonl}")
    print()
    print(render_attribution(attribution))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="LogTM-SE reproduction: regenerate the paper's "
                    "tables and figures.")
    parser.add_argument("--seed", type=int, default=0xC0FFEE)
    parser.add_argument("--json", action="store_true",
                        help="emit structured JSON records instead of "
                             "rendered tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "paper",
        help="run, print and check the paper's tables, figures, ablations "
             "and extensions")
    p.add_argument("--only", nargs="+", metavar="NAME",
                   choices=_ExperimentNames(),
                   help="experiments to run, in the order given (default: "
                        "all, in paper order): %(choices)s")
    p.add_argument("--scale", choices=["quick", "full"], default="quick",
                   help="experiment size; shape claims are checked only at "
                        "full (default: quick)")
    _add_jobs(p)
    p.set_defaults(fn=_cmd_paper)

    p = sub.add_parser("run", help="run one workload on the Table 1 CMP")
    p.add_argument("workload",
                   help="workload name (benchmark or microbench, e.g. "
                        "BerkeleyDB or SharedCounter)")
    p.add_argument("--threads", type=int, default=32)
    p.add_argument("--units", type=int, default=2)
    p.add_argument("--signature", default="perfect",
                   choices=[k.value for k in SignatureKind])
    p.add_argument("--bits", type=int, default=2048)
    p.add_argument("--locks", action="store_true",
                   help="run the lock baseline instead of transactions")
    p.add_argument("--verify", action="store_true",
                   help="attach the correctness checkers (signature "
                        "oracle, undo-log oracle, isolation shadow, "
                        "serializability); exit 1 on any violation")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "lint",
        help="static analysis of workload definitions (rules "
             "VR001-VR005), or of the simulator itself (--self)")
    p.add_argument("paths", nargs="*",
                   help="files or directories to lint (default: the "
                        "bundled repro.workloads package, or the repro "
                        "package itself with --self)")
    p.add_argument("--self", action="store_true", dest="self",
                   help="run the determinism self-lint (rules "
                        "SR001-SR003) over the simulator's own sources")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format (json also available via the "
                        "global --json flag)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="whole-project static analysis: the lint rules plus the "
             "concurrency passes (lockset RC001/RC004, section "
             "dataflow RC002, lock-order RC003)")
    p.add_argument("paths", nargs="*",
                   help="files or directories to analyze (default: the "
                        "installed repro package)")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text",
                   help="output format (sarif emits a SARIF 2.1.0 log)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="findings baseline to compare against "
                        "(default: ./ANALYSIS_BASELINE.json when "
                        "present); exit 1 only on findings not in it")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from this run's findings "
                        "and exit 0")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "mc",
        help="bounded exhaustive model check of a small protocol config")
    p.add_argument("--fabric", default="directory",
                   choices=["directory", "snooping", "multichip"])
    p.add_argument("--cores", type=int, default=2,
                   help="cores (per chip for multichip; default: 2)")
    p.add_argument("--blocks", type=int, default=2,
                   help="distinct memory blocks (default: 2)")
    p.add_argument("--contexts", type=int, default=1,
                   help="transactional contexts per core (default: 1)")
    p.add_argument("--chips", type=int, default=2,
                   help="chips (multichip fabric only; default: 2)")
    p.add_argument("--signature", default="perfect",
                   choices=[k.value for k in SignatureKind])
    p.add_argument("--bits", type=int, default=64,
                   help="signature bits for inexact designs "
                        "(default: 64)")
    p.add_argument("--state-cap", type=int, default=None,
                   help="bound on distinct states explored (default: "
                        "50,000)")
    p.add_argument("--mutate", default=None,
                   help="re-introduce a known protocol bug behind a "
                        "flag (see repro.verify.faults.MUTATIONS); the "
                        "checker must convict it")
    p.add_argument("--dump", default=None, metavar="PATH",
                   help="write the counterexample (if any) as JSON to "
                        "this path")
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser(
        "bench",
        help="measure the pinned benchmark suite; track BENCH_*.json")
    p.add_argument("--suite", nargs="+", default=None,
                   choices=["fig4_cell", "fig3_signatures",
                            "table3_conflict", "engine_stress"],
                   help="cases to run (default: all four)")
    p.add_argument("--scale", choices=["quick", "full"], default="full",
                   help="pinned case size; the committed trajectory is "
                        "measured at full (default: full)")
    p.add_argument("--label", default="measured",
                   help="trajectory-entry label (re-measuring the tail "
                        "label replaces it; default: measured)")
    p.add_argument("--out-dir", default=".",
                   help="directory holding the BENCH_*.json records "
                        "(default: the current directory)")
    p.add_argument("--check", action="store_true",
                   help="compare against the committed trajectory: exit 1 "
                        "on >30%% slowdown, exit 2 on >2x or on a result-"
                        "digest mismatch")
    p.add_argument("--no-write", action="store_true",
                   help="measure (and --check) without updating the "
                        "BENCH_*.json files")
    p.add_argument("--report", action="store_true",
                   help="render the committed trajectory tables and exit "
                        "(no measurement)")
    p.set_defaults(fn=_cmd_bench)

    def _add_spec_args(p: argparse.ArgumentParser) -> None:
        """The variant-grid arguments shared by ``sweep`` and ``submit``."""
        p.add_argument("workload", help="workload name (e.g. Mp3d)")
        p.add_argument("--mode", choices=SWEEP_MODES, default="designs",
                       help="variant family: all signature designs at "
                            "--bits, one --kind across --sizes, or the six "
                            "Figure 4 configs (default: designs)")
        p.add_argument("--kind", default="bs",
                       choices=[k.value for k in SignatureKind
                                if k is not SignatureKind.PERFECT],
                       help="signature design for --mode sizes")
        p.add_argument("--sizes", type=int, nargs="+",
                       default=[64, 256, 2048],
                       help="signature bit sizes for --mode sizes")
        p.add_argument("--bits", type=int, default=2048,
                       help="signature bits for --mode designs")
        p.add_argument("--granularity", type=int, default=1024,
                       help="CBS macroblock bytes (sizes mode)")
        p.add_argument("--threads", type=int, default=8)
        p.add_argument("--units", type=int, default=2)
        p.add_argument("--timeout", type=float, default=None,
                       help="per-variant wall-clock timeout in seconds")
        p.add_argument("--retries", type=int, default=1,
                       help="relaunches after a worker crash (default: 1)")

    p = sub.add_parser(
        "sweep",
        help="run one workload across a config family (parallel, cached)")
    _add_spec_args(p)
    _add_jobs(p)
    _add_db(p)
    p.add_argument("--no-cache", action="store_true",
                   help="always execute; do not read or write the store")
    p.add_argument("--trace-dir", default=None,
                   help="write per-variant Chrome trace + JSONL artifacts "
                        "into this directory (disables the store)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="run the sweep service: HTTP job server over the engine")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--workers", type=int, default=2,
                   help="persistent worker processes (default: 2)")
    _add_db(p)
    p.add_argument("--no-cache", action="store_true",
                   help="accepted and ignored: the service always serves "
                        "and stores results through --db")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="seconds to let in-flight cells finish on "
                        "SIGTERM/SIGINT (default: 30)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a sweep to a running service (see: repro serve)")
    _add_spec_args(p)
    p.add_argument("--url", default="http://127.0.0.1:8642",
                   help="service endpoint (default: "
                        "http://127.0.0.1:8642)")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs earlier (default: 0)")
    p.add_argument("--wait", action="store_true",
                   help="block until the job is terminal; exit 1 unless "
                        "it finished 'done'")
    p.add_argument("--wait-timeout", type=float, default=600.0,
                   help="--wait limit in seconds (default: 600)")
    p.add_argument("--follow", action="store_true",
                   help="stream the job's NDJSON progress events until "
                        "it is terminal (implies waiting)")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "jobs",
        help="list/inspect/cancel jobs on a running service")
    p.add_argument("job_id", nargs="?", default=None,
                   help="job id to inspect (omit to list jobs)")
    p.add_argument("--url", default="http://127.0.0.1:8642",
                   help="service endpoint (default: "
                        "http://127.0.0.1:8642)")
    p.add_argument("--state", default=None,
                   choices=["queued", "running", "done", "failed",
                            "cancelled"],
                   help="filter the listing by state")
    p.add_argument("--limit", type=int, default=50,
                   help="listing size (default: 50)")
    p.add_argument("--results", action="store_true",
                   help="show the job's per-cell results (digests)")
    p.add_argument("--cancel", action="store_true",
                   help="cancel the job")
    p.set_defaults(fn=_cmd_jobs)

    p = sub.add_parser(
        "cache",
        help="inspect or prune the sweep run store")
    p.add_argument("action", choices=["stats", "prune"])
    p.add_argument("--max-entries", type=_nonneg_int, default=None,
                   help="prune: evict least-recently-used runs beyond "
                        "this cap (runs a job references are kept)")
    _add_db(p)
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser(
        "trace",
        help="run one workload with tracing on; write a Chrome trace")
    p.add_argument("workload",
                   help="workload name (benchmark or microbench, e.g. "
                        "SharedCounter)")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--units", type=int, default=2)
    p.add_argument("--signature", default="perfect",
                   choices=[k.value for k in SignatureKind])
    p.add_argument("--bits", type=int, default=2048)
    p.add_argument("--locks", action="store_true",
                   help="trace the lock baseline instead of transactions")
    p.add_argument("--small", action="store_true", default=True,
                   help="use the small 4-core config (default)")
    p.add_argument("--full-machine", dest="small", action="store_false",
                   help="use the full Table 1 CMP instead of --small")
    p.add_argument("--out", default=None,
                   help="Chrome trace output path (default: "
                        "<workload>.trace.json)")
    p.add_argument("--jsonl", default=None,
                   help="also write raw events as JSON Lines to this path")
    p.add_argument("--kinds", nargs="+", default=None,
                   help="restrict captured events to these kinds or "
                        "namespaces (e.g. tm coh.nack)")
    p.add_argument("--max-events", type=int, default=1_000_000,
                   help="ring-buffer capacity (default: 1,000,000)")
    p.set_defaults(fn=_cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
