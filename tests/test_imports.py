"""The package needs numpy and the standard library only."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(script: str, tmp_path) -> str:
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy(tmp_path):
    out = _run(
        """
        import sys
        import gsskit
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """,
        tmp_path,
    )
    assert out.strip() == "[]"


def test_pipeline_runs_with_scipy_unavailable(tmp_path):
    out = _run(
        """
        import sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        import numpy as np
        import gsskit
        from gsskit.io import read_wav, write_wav

        spec = {
            "duration": 2.0,
            "channels": 3,
            "sources": [
                {"speaker": "A", "kind": "noise", "band": [300, 2500], "activity": [[0.2, 1.2]]},
                {"speaker": "B", "kind": "chirp", "activity": [[0.8, 1.9]]},
            ],
            "snr_db": 25,
        }
        scene = gsskit.simulate_scene(spec, seed=3)
        write_wav("mixture.wav", scene.mixture)
        audio = read_wav("mixture.wav")
        utterances = gsskit.parse_annotations(scene.annotations)
        activity = gsskit.build_activity(utterances, audio.duration)
        config = gsskit.PipelineConfig(
            wpe=gsskit.WpeConfig(taps=3, iterations=1), em=gsskit.EmConfig(iterations=3)
        )
        out = gsskit.enhance_utterance(utterances[0], audio, activity, config)
        assert out.samples.shape == (1, utterances[0].duration_samples)
        assert np.all(np.isfinite(out.samples))
        print("ok")
        """,
        tmp_path,
    )
    assert out.strip() == "ok"


# Every public name of the package, one line each. An export is added or
# removed by editing this set along with the package.
PUBLIC_NAMES = {
    "SAMPLE_RATE",
    "ActivityMask",
    "DirectionalObservations",
    "EmConfig",
    "EnhanceDetails",
    "MixtureParams",
    "PipelineConfig",
    "PsdSet",
    "SessionActivity",
    "Spectrogram",
    "StftConfig",
    "SyntheticScene",
    "Utterance",
    "Waveform",
    "WpeConfig",
    "activity_to_frames",
    "apply_beamformer",
    "apply_target_mask",
    "ban_postfilter",
    "build_activity",
    "em_fit",
    "enhance_utterance",
    "estimate_psds",
    "extend_context",
    "istft",
    "mvdr_souden",
    "normalize_observations",
    "overlap_histogram",
    "parse_annotations",
    "parse_chime5_annotations",
    "refine_with_asr",
    "run_batch",
    "select_reference",
    "si_sdr",
    "simulate_scene",
    "stft",
    "wpe_dereverberate",
}


def test_public_surface_is_pinned():
    import types

    import gsskit

    public = {
        name for name, value in vars(gsskit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
