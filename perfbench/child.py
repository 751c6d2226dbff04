"""One fresh interpreter of the benchmark: times set-up, then runs a workload.

Started by run.py as

    python3 child.py MODE SPAWNED_AT WORKLOAD PROGRAM_SEED SECONDS TMPDIR

with BLAS pinned to one thread and the checkout's `src` first on
PYTHONPATH. SPAWNED_AT is the parent's `time.monotonic()` just before the
spawn, so set-up time covers interpreter start plus `import
particleflow.cli`. MODE is `setup` (report set-up only), `measure` (untraced
CLI calls) or `trace` (untraced calls, then traced calls whose spans are
written to TMPDIR/spans.json). The result is the last stdout line, as JSON.
"""
import os
import sys
import time


def _timed_calls(main, workload, program_seed, seconds, tmpdir, reference, min_calls):
    """Run the workload's CLI call until `seconds` pass; check every output.

    `reference` is (reference CSV text, run keys exempt from value checks).
    """
    import contextlib
    import io

    from outcheck import compare

    out = os.path.join(tmpdir, "out.csv")
    argv = workload.cli_args(program_seed, out)
    calls = []
    start = time.perf_counter()
    # stop before a call that would end past `seconds`, so a run's length is
    # `seconds` whatever the length of one call
    while len(calls) < min_calls or (
            (time.perf_counter() - start) * (len(calls) + 1) / len(calls) <= seconds):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
        wall = time.perf_counter() - t0
        with open(out, encoding="utf-8", newline="") as handle:
            check = compare(handle.read(), *reference)
        calls.append({
            "wall_s": wall,
            "ok": check.ok,
            "byte_identical": check.byte_identical,
            "max_rel_dev": check.max_rel_dev,
            "failed_runs": check.failed_runs,
            "problems": check.problems,
        })
    return calls


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run(mode, setup_s, workload_name, program_seed, seconds, tmpdir) -> dict:
    import json
    import resource

    import particleflow.cli
    from outcheck import read_reference, read_sensitive
    from workloads import WORKLOADS

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(particleflow.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {particleflow.cli.__file__}, not the checkout under {src}")
    result = {"setup_s": setup_s}
    if mode == "setup":
        return result
    workload = WORKLOADS[workload_name]
    path = workload.reference(program_seed)
    reference = (read_reference(path), read_sensitive(path))
    main = particleflow.cli.main
    # the first call pays lazy set-up (allocator, caches); it is checked, not timed
    warmup = _timed_calls(main, workload, program_seed, 0.0, tmpdir, reference, 1)
    result["warmup"] = warmup
    share = seconds if mode == "measure" else seconds / 2.0
    result["calls"] = _timed_calls(main, workload, program_seed, share, tmpdir, reference, 3)
    if mode == "trace":
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = tracer.span(ROOT, main)
            result["traced_calls"] = _timed_calls(traced, workload, program_seed, share, tmpdir,
                                                  reference, 1)
        finally:
            tracer.uninstall()
        with open(os.path.join(tmpdir, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "cholesky": tracer.cholesky}, handle)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = _environment()
    return result


if __name__ == "__main__":
    import particleflow.cli  # noqa: F401  -- the set-up being timed

    _setup_s = time.monotonic() - float(sys.argv[2])
    import json

    _mode, _, _workload, _seed, _seconds, _tmpdir = sys.argv[1:7]
    print(json.dumps(run(_mode, _setup_s, _workload, int(_seed), float(_seconds), _tmpdir)))
