"""The quest benchmark: one closed-loop client against a ``small`` store.

    python3 perfbench/run.py --workload scan_warm --seed 1 --seconds 8 --trace 0

Run from the repository root.  Each run generates the raw files from the
seed (``quest gen``), sets the store up several times (ingest and index,
plus open and index load for the warm workloads), computes the oracle
answers, then sends requests one at a time for ``--seconds`` seconds of
serving time and checks every answer.  The last line of stdout is the
result JSON; with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import spans
from speed import Reference
from workload import MIN_REQUESTS, PRESET, QUERIES, WORKLOADS, digest, request_order

HERE = Path(__file__).resolve().parent
CLI_PROBE = 3  # traced quest query children a warm workload's traced run adds
CHILD_TIMEOUT = 170.0  # seconds; a run must end within 180
# per-layer metrics the warm workloads take from their traced CLI probe
CLI_PHASES = ("cli.import_ms", "cli.other_ms", "store.open_ms", "store.open_bytes", "skiptree.load_ms")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
        )
        self.store = self.work / "store"
        self.attempted = 0
        self.failed = 0

    # -- children -----------------------------------------------------------

    def child(self, args: list[str]) -> str:
        """Run one child to completion; returns its stdout."""
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(args[:2])} exited with {proc.returncode}")
        return proc.stdout

    def worker(self, *args: str) -> dict:
        """A worker.py role; its last stdout line is JSON."""
        return json.loads(self.child([str(HERE / "worker.py"), *args]).strip().splitlines()[-1])

    def tally(self, res: dict) -> None:
        self.attempted += res["attempted"]
        self.failed += res["failed"]

    # -- set-up -------------------------------------------------------------

    def generate(self) -> int:
        """Write the seed's raw files; returns their size in bytes."""
        gen = self.work / "gen"
        self.child(["-m", "quest.cli", "gen", "--store", str(gen), "--scale", PRESET, "--seed", str(self.seed)])
        self.raw = gen / "raw"
        return sum(p.stat().st_size for p in self.raw.iterdir() if p.name != "gen.json")

    def setup(self) -> list[dict]:
        """Set the store up several times from the raw files, in one process."""
        args = ["setup", "--raw", str(self.raw), "--store", str(self.store)]
        timings = self.worker(*args, *(["--open"] if self.workload != "cli_cold" else []))["repeats"]
        # the CLI falls back to an in-memory index build without saying so
        # (and its sidecar still says "skiptree": true); a missing persisted
        # index would turn load time into build time
        manifest = json.loads((self.store / "manifest.json").read_text(encoding="utf-8"))
        for name in manifest["schemas"]:
            if not (self.store / name / "_skiptree" / "skiptree.json").is_file():
                raise BenchError(f"set-up left no persisted skip index for {name!r}")
        return timings

    # -- CLI requests ---------------------------------------------------------

    def cli_request(self, qname: str, expected: str, traced: bool) -> dict:
        """One ``quest query`` child; wall time from spawn to reap."""
        query_args = ["query", "--store", str(self.store), "--format", "json", json.dumps(QUERIES[qname])]
        spans_path = self.work / "cli.spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *query_args]
        else:
            cmd = [sys.executable, "-m", "quest.cli", *query_args]
        out_path, err_path = self.work / "cli.out", self.work / "cli.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        res = {"wall": wall, "ok": False, "rss_kb": usage.ru_maxrss}
        if proc.returncode != 0:
            err_text = err_path.read_text(encoding="utf-8", errors="replace")
            sys.stderr.write(f"{qname}: quest query exited with {proc.returncode}\n{err_text}")
            return res
        try:
            rows = json.loads(out_path.read_text(encoding="utf-8"))["rows"]
        except (ValueError, KeyError) as exc:
            sys.stderr.write(f"{qname}: unreadable quest query output: {exc!r}\n")
            return res
        if digest(rows) != expected:
            sys.stderr.write(f"{qname}: rows differ from the oracle\n")
        else:
            res["ok"] = True
        if traced:
            res["trace"] = json.loads(spans_path.read_text(encoding="utf-8"))
        return res

    def cli_loop(self, order, expected: dict, seconds: float, traced=False, ref=None, min_requests=0) -> list[dict]:
        """Children one at a time until ``seconds`` of their wall time and
        ``min_requests`` children have passed, or ``order`` runs out."""
        out = []
        busy = 0.0
        while busy < seconds or len(out) < min_requests:
            qname = next(order, None)
            if qname is None:
                break
            res = self.cli_request(qname, expected[qname], traced)
            busy += res["wall"]
            self.attempted += 1
            self.failed += not res["ok"]
            out.append(res)
            if ref is not None:
                ref.after(res["wall"])
        return out


# ---------------------------------------------------------------------------
# metrics


def _ms(seconds: float) -> float:
    return seconds * 1e3


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    End-to-end runs make at least MIN_REQUESTS requests, so it lies above
    the median; should requests fail and leave 20 samples or fewer, the
    median is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 20:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def qps(results: list[dict]) -> float:
    return len(results) / sum(r["wall"] for r in results)


def cli_layers(children: list[dict]) -> dict:
    """Per-layer medians over traced ``quest query`` children."""
    rows = []
    for child in children:
        trace = child.get("trace")
        if trace is None:  # the child failed; it is counted as such
            continue
        req = spans.request_split(trace["spans"])[-1]
        check_nesting(spans.misnested(trace["spans"]))
        rows.append(
            {
                "cli.import_ms": _ms(trace["import_s"]),
                "cli.other_ms": _ms(child["wall"] - trace["import_s"] - req["top"]),
                "store.open_ms": _ms(req["time"].get(spans.OPEN, 0.0)),
                "store.open_bytes": req["count"].get(spans.OPEN, 0),
                "skiptree.load_ms": _ms(req["time"].get(spans.LOAD, 0.0)),
                "query.parse_ms": _ms(req["time"].get(spans.PARSE, 0.0)),
                "optimizer.plan_ms": _ms(req["time"].get(spans.PLAN, 0.0)),
                "engine.evaluate_ms": _ms(req["time"].get(spans.EVALUATE, 0.0)),
                "engine.self_ms": _ms(req["evaluate_self"]),
                "delivery.deliver_ms": _ms(req["time"].get(spans.DELIVER, 0.0)),
                "store.scan_ms": _ms(req["time"].get(spans.SCAN, 0.0)),
            }
        )
    if not rows:
        raise BenchError("no traced quest query child succeeded")
    return {k: statistics.median_low([r[k] for r in rows]) for k in rows[0]}


def run(args) -> tuple[dict, dict, int, int]:
    root = Path.cwd()
    if not (root / "src" / "quest" / "cli.py").is_file():
        raise BenchError("no quest sources under ./src; run from the repository root")
    bench = Run(root, args.workload, args.seed, float(args.seconds))
    bench.work.mkdir(parents=True)
    try:
        metrics, info = measure(bench, bool(args.trace))
        return metrics, info, bench.attempted, bench.failed
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass


def serve_cli(bench: Run, order, expected: dict, trace: bool) -> dict:
    """``cli_cold``: one ``quest query`` child per request."""
    # no warm-up child: set-up and the check have already read every file
    # the child reads, so the page cache is warm
    if trace:
        plain = bench.cli_loop(order, expected, bench.seconds / 2)
        traced = bench.cli_loop(order, expected, bench.seconds / 2, traced=True)
        metrics = cli_layers(traced)
        metrics["trace.overhead_frac"] = 1.0 - qps(traced) / qps(plain)
        return {"metrics": metrics}
    ref = Reference()
    results = bench.cli_loop(order, expected, bench.seconds, ref=ref, min_requests=MIN_REQUESTS)
    return {
        "latencies": [r["wall"] for r in results],
        "scaled": ref.scaled(),
        "peak_rss_kb": max(r["rss_kb"] for r in results),
    }


def serve_warm(bench: Run, expect_path: Path, expected: dict, trace: bool) -> dict:
    """``scan_warm`` and ``join_warm``: one warm worker process serves."""
    served = bench.worker(
        "serve", "--store", str(bench.store), "--workload", bench.workload, "--seed", str(bench.seed),
        "--seconds", str(bench.seconds), "--expect", str(expect_path), *(["--trace"] if trace else []),
    )
    bench.tally(served)
    if trace:
        check_nesting(served["misnested"])
        # the CLI path on this workload's first queries: one traced child each
        names = WORKLOADS[bench.workload][:CLI_PROBE]
        cli = cli_layers(bench.cli_loop(iter(names), expected, float("inf"), traced=True))
        served["metrics"].update({k: cli[k] for k in CLI_PHASES})
    return served


def check_nesting(misnested: int) -> None:
    """Self times add up to each evaluate span only if spans nest."""
    if misnested:
        raise BenchError(f"{misnested} trace spans do not nest inside their parents")


def measure(bench: Run, trace: bool) -> tuple[dict, dict]:
    names = WORKLOADS[bench.workload]
    raw_bytes = bench.generate()
    setups = bench.setup()
    store_bytes = sum(p.stat().st_size for p in bench.store.rglob("*") if p.is_file())
    checked = bench.worker(
        "check", "--store", str(bench.store), "--workload", bench.workload, *(["--layers"] if trace else [])
    )
    bench.tally(checked)
    expected = checked["expected"]
    expect_path = bench.work / "expected.json"
    expect_path.write_text(json.dumps(expected), encoding="utf-8")
    order = request_order(bench.seed, names)
    if bench.workload == "cli_cold":
        served = serve_cli(bench, order, expected, trace)
    else:
        served = serve_warm(bench, expect_path, expected, trace)

    info: dict = {
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "preset": PRESET,
            "seed": bench.seed,
            "workload": bench.workload,
            "clients": 1,
            "threads": {"OMP_NUM_THREADS": 1, "OPENBLAS_NUM_THREADS": 1},
        }
    }
    if trace:
        check_nesting(checked["misnested"])
        layers = {**served["metrics"], **checked["metrics"]}
        layers.update(
            {
                "store.ingest_s": statistics.median(s["ingest_s"] for s in setups),
                "store.write_s": statistics.median(s["write_s"] for s in setups),
                "store.disk_bytes": store_bytes,
                "skiptree.build_s": statistics.median(s["build_s"] for s in setups),
                "skiptree.write_s": statistics.median(s["skiptree_write_s"] for s in setups),
            }
        )
        return layers, info

    raw, scaled = served["latencies"], served["scaled"]
    tail_raw, pct = tail(raw)
    info["tail"] = {"percentile": pct, "samples": len(raw)}
    info["raw"] = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "p50_ms": _ms(statistics.median(raw)),
        "tail_ms": _ms(tail_raw),
        "qps": len(raw) / sum(raw),
    }
    # times scaled to the reference loop's nominal speed; see speed.py
    metrics = {
        "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
        "p50_ms": _ms(statistics.median(scaled)),
        "tail_ms": _ms(tail(scaled)[0]),
        "qps": len(scaled) / sum(scaled),
        "correct_frac": (bench.attempted - bench.failed) / bench.attempted,
        "peak_rss_mb": served["peak_rss_kb"] / 1024,
        "store_bytes_per_raw_byte": store_bytes / raw_bytes,
    }
    return metrics, info


def _declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so children are stopped and scratch files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        units = _declared(args.trace)
        metrics, info, attempted, failed = run(args)
        if set(units) != set(metrics):
            raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"perfbench": info}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
