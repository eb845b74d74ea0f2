"""Command line front end."""

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .activity import (
    OVERLAP_BIN_EDGES,
    OverlapHistogram,
    build_activity,
    overlap_histogram,
    parse_annotations,
    parse_chime5_annotations,
)
from .io import dump_json, load_json, read_wav, write_wav
from .metrics import SeparationMetrics, si_sdr
from .pipeline import PipelineConfig, run_batch
from .signal import Waveform
from .simulate import simulate_scene

logger = logging.getLogger(__name__)


def _cmd_enhance(args) -> int:
    config = PipelineConfig.from_dict(load_json(args.config)) if args.config else PipelineConfig()
    overrides = {}
    if args.track:
        overrides["track"] = args.track
    if args.no_wpe:
        overrides["wpe_enabled"] = False
    if args.mask:
        overrides["masking"] = args.mask
    if args.context_secs is not None:
        overrides["context_seconds"] = args.context_secs
    if args.em_iters is not None:
        overrides["em"] = replace(config.em, iterations=args.em_iters)
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.output_dir:
        overrides["output_dir"] = args.output_dir
    if overrides:
        config = replace(config, **overrides)

    report = run_batch(load_json(args.manifest), config)
    dump_json(report, Path(config.output_dir) / "report.json")
    done = sum(1 for row in report["utterances"] if row["status"] == "ok")
    print(f"enhanced {done}/{len(report['utterances'])} utterances -> {config.output_dir}")
    if report["failures"]:
        print(f"{report['failures']} utterance(s) failed, see report.json", file=sys.stderr)
        return 1
    return 0


def _histogram_rows(hist, prefix=""):
    return [
        f"{prefix}{lo},{hi},{frequency:.6f}"
        for lo, hi, frequency in zip(OVERLAP_BIN_EDGES, OVERLAP_BIN_EDGES[1:], hist.frequencies)
    ]


def _cmd_analyze_overlap(args) -> int:
    parse = parse_chime5_annotations if args.format == "chime5" else parse_annotations
    utterances = parse(load_json(args.annotations))
    if not utterances:
        print("no utterances found", file=sys.stderr)
        return 1

    by_session = {}
    for u in utterances:
        by_session.setdefault(u.session_id, []).append(u)

    histograms = {
        session: overlap_histogram(utts, build_activity(utts))
        for session, utts in sorted(by_session.items())
    }
    if args.per_session:
        lines = ["session_id,bin_lo,bin_hi,word_fraction"]
        for session, hist in histograms.items():
            lines.extend(_histogram_rows(hist, prefix=f"{session},"))
    else:
        pooled = OverlapHistogram.from_counts(sum(h.word_counts for h in histograms.values()))
        lines = ["bin_lo,bin_hi,word_fraction", *_histogram_rows(pooled)]

    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    scene = simulate_scene(load_json(args.spec), args.seed)
    out = Path(args.out)
    write_wav(out / "mixture.wav", scene.mixture)
    for s, speaker in enumerate(scene.speakers):
        write_wav(out / f"image_{speaker}.wav", Waveform(scene.images[s], scene.mixture.sample_rate))
        write_wav(out / f"dry_{speaker}.wav", Waveform(scene.dry[s:s + 1], scene.mixture.sample_rate))
    dump_json(scene.annotations, out / "annotations.json")
    dump_json(
        {
            "session_id": scene.session_id,
            "seed": scene.seed,
            "speakers": list(scene.speakers),
            "channels": scene.mixture.num_channels,
            "duration_seconds": scene.mixture.duration,
            "has_noise": scene.noise is not None,
        },
        out / "scene.json",
    )
    print(f"scene {scene.session_id} written to {out}")
    return 0


def _load_mono(path) -> np.ndarray:
    wave = read_wav(path)
    if wave.num_channels > 1:
        logger.warning("%s has %d channels, using the first", path, wave.num_channels)
    return wave.samples[0]


def _cmd_metrics(args) -> int:
    est = _load_mono(args.est)
    ref = _load_mono(args.ref)
    if len(est) != len(ref):
        logger.warning(
            "length mismatch (%d vs %d samples), trimming", len(est), len(ref)
        )
        n = min(len(est), len(ref))
        est, ref = est[:n], ref[:n]
    baseline = None
    if args.mix:
        mix = _load_mono(args.mix)[: len(ref)]
        baseline = si_sdr(mix, ref[: len(mix)])
    result = SeparationMetrics(si_sdr_db=si_sdr(est, ref), baseline_db=baseline)
    payload = {"si_sdr_db": result.si_sdr_db}
    if baseline is not None:
        payload["baseline_db"] = result.baseline_db
        payload["improvement_db"] = result.improvement_db
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsskit",
        description="Guided source separation for annotated multi-channel recordings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enhance = sub.add_parser("enhance", help="separate every annotated utterance")
    enhance.add_argument("--config", help="pipeline config JSON")
    enhance.add_argument("--manifest", required=True, help="session manifest JSON")
    enhance.add_argument("--track", choices=["single", "multi"])
    enhance.add_argument("--no-wpe", action="store_true", help="skip dereverberation")
    enhance.add_argument("--mask", choices=["on", "off"], help="target masking override")
    enhance.add_argument("--context-secs", type=float, default=None)
    enhance.add_argument("--em-iters", type=int, default=None)
    enhance.add_argument("--workers", type=int, default=None)
    enhance.add_argument("--output-dir", default=None)
    enhance.set_defaults(func=_cmd_enhance)

    overlap = sub.add_parser("analyze-overlap", help="word-weighted overlap histogram")
    overlap.add_argument("--annotations", required=True)
    overlap.add_argument("--format", choices=["native", "chime5"], default="native")
    overlap.add_argument("--per-session", action="store_true")
    overlap.add_argument("--out", help="CSV output path (default: stdout)")
    overlap.set_defaults(func=_cmd_analyze_overlap)

    simulate = sub.add_parser("simulate", help="render a synthetic scene")
    simulate.add_argument("--spec", required=True, help="scene description JSON")
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.set_defaults(func=_cmd_simulate)

    metrics = sub.add_parser("metrics", help="SI-SDR of an estimate against a reference")
    metrics.add_argument("--est", required=True)
    metrics.add_argument("--ref", required=True)
    metrics.add_argument("--mix", help="unprocessed mixture for an improvement figure")
    metrics.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
