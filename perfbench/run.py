"""Seeded benchmark of the gsskit enhancement pipeline.

    python3 perfbench/run.py --workload readme6s --seed 7 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. The seed picks one of the
scenes whose SI-SDR improvements ``expected.json`` records (seed modulo
their number). One run imports the package, synthesises that scene,
writes the WAV, annotation, manifest and config files the program
receives and warms up; the same cold set-up is timed again in fresh
interpreters for ``setup_s``. It then enhances every annotated utterance
in repeated passes for about ``--seconds`` seconds. Outputs are checked
after the timed region. With
``--trace 1`` every second pass runs with the pipeline's layer calls
wrapped in spans, and the per-layer metrics replace the end-to-end ones.
The last line of standard output is the JSON result; ``perfbench/README.md``
defines every metric.
"""

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Cold set-ups timed per run: this process plus SETUPS - 1 fresh ones.
SETUPS = 3
# Passes per run at least, so that every median has three values (and a
# traced run has an untraced and a traced pass).
MIN_PASSES = 3
# Per-utterance SI-SDR improvements may differ from the recorded ones by
# summation-order effects only.
SI_SDR_TOLERANCE_DB = 0.001

sys.path.insert(0, str(HERE))

from tracing import LAYER_OF, Tracer, self_times  # noqa: E402  (needs the path above)
from workloads import WORKLOADS  # noqa: E402


def import_program():
    """Import gsskit from this checkout's ``src/``; exit if it is absent."""
    src = ROOT / "src"
    if not (src / "gsskit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gsskit sources under {src}")
    sys.path.insert(0, str(src))
    import gsskit

    if Path(gsskit.__file__).resolve().parent != src / "gsskit":
        sys.exit(f"perfbench: gsskit was imported from {gsskit.__file__}, not {src}")
    return gsskit


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Run:
    """One workload at one seed: inputs on disk, then timed passes."""

    def __init__(self, gsskit, workload, seed, workdir):
        self.g = gsskit
        self.workload = workload
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Synthesise, write the program's inputs, read them back, warm up."""
        g, wl, work = self.g, self.workload, self.workdir
        from gsskit.io import dump_json, load_json, read_wav, write_wav

        self.scene = g.simulate_scene(wl.scene, self.seed)
        write_wav(work / "mixture.wav", self.scene.mixture)
        dump_json(self.scene.annotations, work / "annotations.json")
        dump_json(dict(wl.config, output_dir=str(work / "enhanced")), work / "config.json")
        dump_json(
            {"sessions": [{
                "session_id": self.scene.session_id,
                "annotations": str(work / "annotations.json"),
                "audio": {"U01": str(work / "mixture.wav")},
                "length_seconds": wl.scene["duration"],
            }]},
            work / "manifest.json",
        )

        self.config = g.PipelineConfig.from_dict(load_json(work / "config.json"))
        self.manifest = load_json(work / "manifest.json")
        self.audio = read_wav(work / "mixture.wav")
        self.utterances = g.parse_annotations(load_json(work / "annotations.json"))
        self.activity = g.build_activity(self.utterances, wl.scene["duration"])

        cheap = replace(
            self.config,
            context_seconds=0.0,
            em=replace(self.config.em, iterations=1),
            wpe=replace(self.config.wpe, iterations=1),
        )
        g.enhance_utterance(self.utterances[0], self.audio, self.activity, cheap)

    def run_pass(self, tracer=None):
        """Enhance every utterance once.

        Returns (wall seconds, {file name: (samples, reference channel,
        latency seconds)}, failure count).
        """
        pipeline = self.g.pipeline
        from gsskit.io import read_wav, utterance_filename

        results, failed = {}, 0
        if tracer:
            tracer.install(pipeline)
        try:
            begin = time.perf_counter()
            if self.workload.mode == "direct":
                for u in self.utterances:
                    t = time.perf_counter()
                    try:
                        out, details = pipeline.enhance_utterance(
                            u, self.audio, self.activity, self.config, return_details=True
                        )
                    except Exception:  # noqa: BLE001 - counted as failed
                        logging.exception("enhancement failed")
                        failed += 1
                        continue
                    results[utterance_filename(u)] = (
                        out.samples, details.reference_channel, time.perf_counter() - t
                    )
                wall = time.perf_counter() - begin
            else:
                if tracer:
                    report = tracer.call("pipeline.batch", pipeline.run_batch, (self.manifest, self.config))
                else:
                    report = pipeline.run_batch(self.manifest, self.config)
                wall = time.perf_counter() - begin
        finally:
            if tracer:
                tracer.uninstall(pipeline)

        if self.workload.mode == "batch":
            for row in report["utterances"]:
                if row["status"] != "ok":
                    failed += 1
                    continue
                out = read_wav(row["path"])
                results[Path(row["path"]).name] = (
                    out.samples, row["reference_channel"], row["elapsed_seconds"]
                )
        return wall, results, failed


def scene_seed(expected, workload, seed):
    """The recorded scene a seed picks: ``seed`` modulo their number."""
    recorded = expected[workload.name]
    if sorted(recorded, key=int) != [str(i) for i in range(len(recorded))]:
        sys.exit(f"perfbench: expected.json must record scenes 0..n-1 of {workload.name}")
    return seed % len(recorded)


def check_and_score(run, passes, recorded):
    """Correctness of every pass and SI-SDR improvement per utterance.

    An utterance counts as failed in a pass when enhancement raised, or
    its output is not finite, not exactly the utterance length, not
    bit-identical to the first pass, or its improvement is not within
    SI_SDR_TOLERANCE_DB of the value ``recorded`` for it.
    """
    import numpy as np
    from gsskit.io import utterance_filename

    first = passes[0][1]
    scores, bad = {}, set()
    for u in run.utterances:
        name = utterance_filename(u)
        if name not in first:
            bad.add(name)
            continue
        samples, ref, _ = first[name]
        if samples.shape != (1, u.duration_samples) or not np.all(np.isfinite(samples)):
            bad.add(name)
            continue
        span = slice(u.start_samples, u.end_samples)
        image = run.scene.images[run.scene.speakers.index(u.speaker_id), ref, span]
        estimate = run.g.si_sdr(samples[0], image)
        baseline = run.g.si_sdr(run.audio.samples[ref, span], image)
        scores[name] = {"reference_channel": ref, "si_sdr_db": estimate, "baseline_db": baseline,
                        "improvement_db": estimate - baseline, "recorded_db": recorded.get(name)}
        if name not in recorded or abs(estimate - baseline - recorded[name]) > SI_SDR_TOLERANCE_DB:
            bad.add(name)

    failed = 0
    for _, results, pass_failed in passes:
        failed += pass_failed
        for name, (samples, _, _) in results.items():
            failed += name in bad or not np.array_equal(samples, first[name][0])
    return scores, failed


def end_to_end_metrics(run, passes, setup_s):
    """Medians over passes; ``utt_s.max`` is the median of per-pass maxima."""
    latencies = [[lat for _, _, lat in results.values()] for _, results, _ in passes]
    audio_s = sum(u.duration_samples for u in run.utterances) / run.audio.sample_rate
    wall_s = statistics.median(wall for wall, _, _ in passes)
    return {
        "rtf": wall_s / audio_s,
        "wall_s": wall_s,
        "utt_s.p50": statistics.median(lat for per_pass in latencies for lat in per_pass),
        "utt_s.max": statistics.median(max(per_pass) for per_pass in latencies if per_pass),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": setup_s,
    }, sum(map(len, latencies))


def layer_metrics(tracer, wall, workers):
    """Per-layer figures of one traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    metrics = {}
    for layer in sorted(set(LAYER_OF.values()) - {"pipeline.enhance"}):
        mine = [s for s in spans if s["name"] == layer]
        metrics[f"{layer}_s"] = sum(selfs[s["id"]] for s in mine)
        metrics[f"{layer}_calls"] = len(mine)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    enhance = [s for s in spans if s["name"] == "pipeline.enhance"]
    metrics["pipeline.enhance_s"] = sum(s["end"] - s["start"] for s in enhance)
    metrics["pipeline.enhance_calls"] = len(enhance)
    metrics["pipeline.self_s"] = sum(selfs[s["id"]] for s in enhance)
    metrics["pipeline.queue_wait_s"] = sum(tracer.waits)
    metrics["pipeline.queue_wait_calls"] = len(tracer.waits)
    metrics["pipeline.parallel_eff"] = metrics["pipeline.enhance_s"] / (workers * wall)
    for prefix, layer, time_key in (
        ("wpe.gflop", "wpe.dereverberate", "wpe.dereverberate_s"),
        ("mixture.em_gflop", "mixture.em", "mixture.em_s"),
    ):
        gflop = attr_sum(layer, "flop") / 1e9
        metrics[prefix] = gflop
        metrics[f"{prefix}_per_s"] = gflop / metrics[time_key] if metrics[time_key] > 0 else 0.0
    metrics["mixture.em_ll_final"] = attr_sum("mixture.em", "ll_final")
    metrics["mixture.em_ll_decreases"] = attr_sum("mixture.em", "ll_decreases")
    metrics["beamforming.fallback_bins"] = attr_sum("beamforming.psd", "fallback_bins")
    metrics["trace.unattributed_frac"] = 1.0 - sum(selfs.values()) / wall
    return metrics


def cold_setup(spec, scene, workdir):
    """Import the program and set the run up; return it and the seconds."""
    started = time.perf_counter()
    run = Run(import_program(), spec, scene, workdir)
    run.setup()
    return run, time.perf_counter() - started


def cold_setup_elsewhere(spec, seed):
    """Seconds of one cold set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", spec.name, "--seed", str(seed), "--setup-only"],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def run_workload(args, spec, bench):
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    seed = spec.default_seed if args.seed is None else args.seed
    scene = scene_seed(expected, spec, seed)
    if args.setup_only:
        _, seconds = cold_setup(spec, scene, OUT / f"{spec.name}-scene{scene}-setup")
        print(seconds)
        return 0

    run, first = cold_setup(spec, scene, OUT / f"{spec.name}-scene{scene}")
    setups = [first] + [cold_setup_elsewhere(spec, seed) for _ in range(SETUPS - 1)]
    setup_s = statistics.median(setups)
    env = environment()

    # Alternate untraced and traced passes in a traced run. Start another
    # pass while it is expected to end nearer to --seconds than stopping
    # now would, so the timed region fills --seconds on average.
    passes, traced = [], []
    begin = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(passes) % 2 == 1 else None
        result = run.run_pass(tracer)
        (traced if tracer else passes).append((result, tracer))
        done = len(passes) + len(traced)
        typical = statistics.median(r[0] for r, _ in passes + traced)
        elapsed = time.perf_counter() - begin
        if done >= MIN_PASSES and elapsed + typical / 2 > args.seconds:
            break

    all_passes = [r for r, _ in passes + traced]
    scores, failed = check_and_score(run, all_passes, expected[spec.name][str(scene)])
    attempted = len(all_passes) * len(run.utterances)
    improvements = [s["improvement_db"] for s in scores.values()]

    if args.trace:
        workers = run.config.workers if spec.mode == "batch" else 1
        per_pass = [layer_metrics(t, r[0], workers) for r, t in traced]
        metrics = {
            key: (per_pass[0][key] if key.endswith(("_calls", "_bins", "_ll_final", "_decreases"))
                  else statistics.mean(m[key] for m in per_pass))
            for key in per_pass[0]
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(r[0] for r, _ in traced) / statistics.median(r[0] for r, _ in passes) - 1.0
        )
        metrics["si_sdr_imp_db.mean"] = statistics.mean(improvements) if improvements else float("nan")
        metrics["si_sdr_imp_db.min"] = min(improvements) if improvements else float("nan")
        samples = len(traced)
    else:
        metrics, samples = end_to_end_metrics(run, all_passes, setup_s)

    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    differ = set(units) ^ set(metrics)
    if differ:
        raise RuntimeError(f"metric set differs from BENCHMARK.json: {sorted(differ)}")

    record = {
        "workload": spec.name, "seed": seed, "scene": scene, "trace": args.trace, "env": env,
        "default_seed": spec.default_seed, "default_seed_reason": spec.seed_reason,
        "passes": [r[0] for r in all_passes], "setups_s": setups,
        "latencies": [[lat for _, _, lat in r[1].values()] for r in all_passes],
        "samples": samples, "utterances": scores, "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{spec.name}-seed{seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as handle:
            json.dump([{"pass": i, "spans": t.spans, "queue_waits": t.waits}
                       for i, (_, t) in enumerate(traced)], handle)

    print(f"# {spec.name} seed={seed} scene={scene} trace={args.trace} passes={len(all_passes)} "
          f"samples={samples} env={json.dumps(env)}")
    for name, score in scores.items():
        print(f"# {name}: ref={score['reference_channel']} "
              f"si_sdr_imp_db={score['improvement_db']:.4f} recorded={score['recorded_db']}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="scene seed; defaults to the workload's recorded seed")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up of --workload and print its seconds")
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one --workload")

    if args.workload != "all":
        return run_workload(args, WORKLOADS[args.workload], bench)
    # Each workload in its own process, so peak memory and warm-up are its own.
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
