"""One benchmark execution in a fresh interpreter.

Usage: python3 child.py '<spec json>'   (run by run.py, cwd = the work directory)

The spec names the package source directory, the subcommand and its config
file, and whether to trace.  The child times the set-up (import evoheat and its CLI, build
the scenario, make the initial data), then the in-process ``evoheat.cli.main``
call, and prints one JSON line: exit code, set-up and call times, peak RSS and,
when traced, the per-layer metrics.  A command of null stops after set-up.
"""

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import evoheat
    import evoheat.cli
    if not os.path.abspath(evoheat.__file__).startswith(spec["src"] + os.sep):
        print(f"evoheat imported from {evoheat.__file__}, not from {spec['src']}",
              file=sys.stderr)
        return 2
    with open(spec["config"]) as f:
        cfg = json.load(f)
    G = evoheat.build_scenario(evoheat.Scenario.from_dict(cfg["scenario"]))
    evoheat.make_initial_data(G, cfg["initial"], default_seed=cfg["seed"])
    result = {"setup_s": time.perf_counter() - t0}

    if spec["command"] is not None:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(evoheat)
        argv = [spec["command"], "--config", spec["config"]]
        t1, c1 = time.perf_counter(), time.process_time()
        try:
            result["exit_code"] = evoheat.cli.main(argv)
        except Exception:  # an execution that raises is a failed execution, not a crash
            result["exit_code"] = None
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - t1
        result["cpu_s"] = time.process_time() - c1
        if tracer is not None:
            result["trace"] = tracer.summary(result["wall_s"], G.n_vertices, G.n_edges)
            tracer.save(spec["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
