"""Smoke self-test of perfbench at tiny sizes.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload in ``BENCHMARK.json`` it checks that an untraced run
prints every end-to-end metric with its unit, that a traced run prints
every per-layer metric, writes its spans and finds the two runs'
deterministic counts equal, and that the reference checks pass -- and
that a deliberately wrong program answer makes the run exit 1.  It also
checks that a checkout holding only ``BENCHMARK.json`` and the benchmark
exits non-zero without a result line.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.2"

#: One wrong answer per workload, patched into the program in-process.
MUTATIONS = {
    "authz-churn": (
        "from repro.drbac.cache import CachedAuthorizer\n"
        "real = CachedAuthorizer.authorize\n"
        "def wrong(self, subject, role, *a, **k):\n"
        "    if role == 'OrgA.Admin':\n"
        "        return None\n"
        "    return real(self, subject, role, *a, **k)\n"
        "CachedAuthorizer.authorize = wrong\n"
    ),
    "mail-sessions": (
        "from repro.mail.server import MailServer\n"
        "real = MailServer.fetchMail\n"
        "MailServer.fetchMail = lambda self, user: real(self, user)[1:]\n"
    ),
}


def run(args: list[str], *, cwd: Path = ROOT, prelude: str = "") -> subprocess.CompletedProcess:
    if prelude:
        code = (
            f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
            f"{prelude}import run\nsys.exit(run.main({args!r}))\n"
        )
        command = [sys.executable, "-c", code]
    else:
        command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    expect(proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    keys = sorted(result)
    expect(keys == ["attempted", "correct", "failed", "metrics"], f"{what}: keys {keys}")
    expect(result["correct"] is True and result["failed"] == 0,
           f"{what}: correct={result['correct']} failed={result['failed']}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted")
    return result


def check_metrics(result: dict, declared: list[dict], what: str, *, nonzero: bool) -> None:
    metrics = result["metrics"]
    expect(sorted(metrics) == sorted(m["name"] for m in declared),
           f"{what}: metric names {sorted(metrics)}")
    for metric in declared:
        got = metrics[metric["name"]]
        expect(got["unit"] == metric["unit"], f"{what}: {metric['name']} unit {got['unit']}")
        expect(isinstance(got["value"], (int, float)), f"{what}: {metric['name']} value")
        if nonzero:
            expect(got["value"] > 0, f"{what}: {metric['name']} is {got['value']}")


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"smoke: FAIL: {message}")
        sys.exit(1)


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        base = ["--workload", workload, "--seed", "3", "--seconds", SECONDS]
        proc = run(base + ["--trace", "0"])
        result = result_of(proc, f"{workload} untraced")
        check_metrics(result, SPEC["end_to_end"], workload, nonzero=True)

        proc = run(base + ["--trace", "1"])
        result = result_of(proc, f"{workload} traced")
        check_metrics(result, SPEC["per_layer"], workload, nonzero=False)
        expect("deterministic counts match" in proc.stdout,
               f"{workload}: traced counts differ\n{proc.stdout}")
        spans = HERE / "out" / f"spans-{workload}-seed3.tsv"
        expect(spans.is_file() and len(spans.read_text().splitlines()) > 100,
               f"{workload}: spans file")

        proc = run(base + ["--trace", "0"], prelude=MUTATIONS[workload])
        expect(proc.returncode == 1 and "REFERENCE MISMATCH" in proc.stderr,
               f"{workload}: a wrong answer went unnoticed (exit {proc.returncode})")
        print(f"smoke: {workload} ok")

    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    args = ["--workload", "authz-churn", "--seed", "1", "--seconds", SECONDS, "--trace", "0"]
    proc = run(args, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip().endswith("}"),
           "bare checkout produced a result")
    shutil.rmtree(bare)
    print("smoke: bare checkout exits non-zero; all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
