"""The README's examples: the JSON read by the code that reads such files,
and the Python API block run as it stands."""

import json
import re
from dataclasses import fields
from pathlib import Path

from gsskit import EmConfig, PipelineConfig, StftConfig, WpeConfig, Waveform, simulate_scene
from gsskit.pipeline import _check_entry

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(key):
    """The one ```json block of the README whose top level has ``key``."""
    text = README.read_text(encoding="utf-8")
    blocks = [json.loads(body) for body in re.findall(r"```json\n(.*?)```", text, re.S)]
    (block,) = [b for b in blocks if key in b]
    return block


def test_readme_config_loads_and_sets_every_key():
    doc = readme_block("context_seconds")
    config = PipelineConfig.from_dict(doc)
    assert config.workers == doc["workers"]
    assert set(doc) == {f.name for f in fields(PipelineConfig)}
    for section, cls in (("stft", StftConfig), ("wpe", WpeConfig), ("em", EmConfig)):
        assert set(doc[section]) == {f.name for f in fields(cls)}


def test_readme_scene_simulates():
    spec = readme_block("sources")
    scene = simulate_scene(spec, seed=7)
    assert scene.session_id == spec["session_id"]
    assert scene.mixture.num_channels == spec["channels"]


def test_readme_manifest_entries_pass_the_entry_check():
    manifest = readme_block("sessions")
    assert isinstance(manifest["sessions"], list) and manifest["sessions"]
    for index, entry in enumerate(manifest["sessions"]):
        _check_entry(index, entry)


def test_readme_python_api_runs():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names = {"spec": readme_block("sources")}
    exec(code, names)
    estimate, utterance = names["estimate"], names["utterances"][0]
    assert isinstance(estimate, Waveform)
    assert estimate.samples.shape == (1, utterance.duration_samples)
