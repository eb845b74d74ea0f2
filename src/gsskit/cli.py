"""Command line front end."""

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .activity import (
    OVERLAP_BIN_EDGES,
    build_activity,
    overlap_word_counts,
    parse_annotations,
    parse_chime5_annotations,
    word_fractions,
)
from .io import _atomic_write, dump_json, load_json, read_wav, write_wav
from .metrics import si_sdr
from .pipeline import PipelineConfig, run_batch
from .signal import Waveform
from .simulate import simulate_scene

logger = logging.getLogger(__name__)


def _cmd_enhance(args) -> int:
    config = PipelineConfig.from_dict(load_json(args.config)) if args.config else PipelineConfig()
    if args.output_dir:
        config = replace(config, output_dir=args.output_dir)
    report = run_batch(load_json(args.manifest), config)
    done = sum(1 for row in report["utterances"] if row["status"] == "ok")
    print(f"enhanced {done}/{len(report['utterances'])} utterances -> {config.output_dir}")
    if report["failures"]:
        print(f"{report['failures']} utterance(s) failed, see report.json", file=sys.stderr)
        return 1
    return 0


def _histogram_rows(counts, prefix=""):
    fractions = word_fractions(counts)
    return [
        f"{prefix}{lo},{hi},{fraction:.6f}"
        for lo, hi, fraction in zip(OVERLAP_BIN_EDGES, OVERLAP_BIN_EDGES[1:], fractions)
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

    counts = {
        session: overlap_word_counts(utts, build_activity(utts))
        for session, utts in sorted(by_session.items())
    }
    if args.per_session:
        lines = ["session_id,bin_lo,bin_hi,word_fraction"]
        for session, words in counts.items():
            lines.extend(_histogram_rows(words, prefix=f"{session},"))
    else:
        lines = ["bin_lo,bin_hi,word_fraction", *_histogram_rows(sum(counts.values()))]

    text = "\n".join(lines) + "\n"
    if args.out:
        with _atomic_write(args.out) as handle:
            handle.write(text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    scene = simulate_scene(load_json(args.spec), args.seed)
    out = Path(args.out)
    rate = scene.mixture.sample_rate
    # One gain for all files, so on disk the images still sum to the mixture
    # less the sensor noise; write_wav would rescale each by its own peak.
    peak = max(abs(signal).max() for signal in (scene.mixture.samples, scene.images, scene.dry))
    gain = 0.95 / peak if peak > 1.0 else 1.0
    logger.info("scene peak %.3f, writing every file at gain %.6f", peak, gain)
    write_wav(out / "mixture.wav", Waveform(gain * scene.mixture.samples, rate))
    for s, speaker in enumerate(scene.speakers):
        write_wav(out / f"image_{speaker}.wav", Waveform(gain * scene.images[s], rate))
        write_wav(out / f"dry_{speaker}.wav", Waveform(gain * scene.dry[s:s + 1], rate))
    dump_json(scene.annotations, out / "annotations.json")
    dump_json(
        {
            "session_id": scene.session_id,
            "seed": scene.seed,
            "speakers": list(scene.speakers),
            "channels": scene.mixture.num_channels,
            "duration_seconds": scene.mixture.duration,
            "has_noise": scene.noise is not None,
            "gain": gain,
        },
        out / "scene.json",
    )
    print(f"scene {scene.session_id} written to {out}")
    return 0


def _cmd_metrics(args) -> int:
    paths = [path for path in (args.est, args.ref, args.mix) if path]
    waves = [read_wav(path) for path in paths]
    for path, wave in zip(paths, waves):
        if wave.num_channels > 1:
            raise ValueError(f"{path} has {wave.num_channels} channels; metrics scores mono "
                             f"files, so cut the channel to score into its own file")
    signals = [wave.samples[0] for wave in waves]
    lengths = [len(signal) for signal in signals]
    n = min(lengths)
    if max(lengths) != n:
        logger.warning("length mismatch (%s samples), trimming to %d",
                       " vs ".join(map(str, lengths)), n)
    est, ref, *mix = (signal[:n] for signal in signals)
    payload = {"si_sdr_db": si_sdr(est, ref)}
    if mix:
        payload["baseline_db"] = si_sdr(mix[0], ref)
        payload["improvement_db"] = payload["si_sdr_db"] - payload["baseline_db"]
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
    enhance.add_argument("--output-dir", help="overrides the config's output_dir")
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
    """Run one command. Returns 0 on success, 1 when some utterances of a
    batch failed, and 2, after one ``gsskit: error:`` line on stderr, when
    a config, manifest or other input is rejected as malformed or cannot
    be read."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"gsskit: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
