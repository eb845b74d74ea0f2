"""Spans recorded from outside the program.

``enhance_utterance`` and ``run_batch`` call every layer through the names
``gsskit.pipeline`` imports. While a :class:`Tracer` is installed, those
names are replaced by timing wrappers; :meth:`Tracer.uninstall` puts the
originals back. Spans stay in memory and are written once, at the end of
the run. Nothing in ``src/`` is copied or edited.
"""

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# Name imported by gsskit.pipeline -> layer span name.
LAYER_OF = {
    "stft": "signal.stft",
    "istft": "signal.istft",
    "wpe_dereverberate": "wpe.dereverberate",
    "normalize_observations": "mixture.normalize",
    "em_fit": "mixture.em",
    "estimate_psds": "beamforming.psd",
    "select_reference": "beamforming.reference",
    "mvdr_souden": "beamforming.mvdr_ban",
    "ban_postfilter": "beamforming.mvdr_ban",
    "apply_beamformer": "beamforming.apply",
    "apply_target_mask": "beamforming.apply",
    "extend_context": "activity.frames",
    "activity_to_frames": "activity.frames",
    "parse_annotations": "activity.parse",
    "parse_chime5_annotations": "activity.parse",
    "build_activity": "activity.parse",
    "refine_with_asr": "activity.parse",
    "read_wav": "io.read_wav",
    "write_wav": "io.write_wav",
    "enhance_utterance": "pipeline.enhance",
}


def _wpe_attrs(args, kwargs, result):
    spec, config = args[0], args[1] if len(args) > 1 else kwargs["config"]
    channels, frames, bins = spec.bins.shape
    order = channels * config.taps
    # One complex multiply-add (8 real flops) per element of the weighted
    # correlation matrix, per frame and iteration.
    return {"flop": 8.0 * bins * frames * order ** 2 * config.iterations}


def _em_attrs(args, kwargs, result):
    observations, activity = args[0], args[1]
    config = args[2] if len(args) > 2 else kwargs["config"]
    frames, bins, dim = observations.units.shape
    classes = activity.num_classes
    # M-step outer products plus E-step quadratic form: two complex
    # multiply-adds per (bin, class, frame, D x D entry) and iteration.
    attrs = {"flop": 16.0 * bins * classes * frames * dim ** 2 * config.iterations}
    if len(result) == 3:
        likelihoods = result[2]
        attrs["ll_final"] = float(likelihoods[-1])
        attrs["ll_decreases"] = sum(int(b < a) for a, b in zip(likelihoods, likelihoods[1:]))
    return attrs


def _psd_attrs(args, kwargs, result):
    return {"fallback_bins": int(result.target_fallback.sum() + result.distortion_fallback.sum())}


ATTRS_OF = {
    "wpe_dereverberate": _wpe_attrs,
    "em_fit": _em_attrs,
    "estimate_psds": _psd_attrs,
}


class Tracer:
    """In-memory span recorder.

    A span is (id, name, start, end, parent id, utterance id, attrs).
    Parent and utterance id come from a per-thread stack; work submitted
    to a thread pool inherits the submitting thread's current span.
    """

    def __init__(self):
        self.spans = []
        self.waits = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = {}

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    def call(self, name, fn, args=(), kwargs=None, utt=None, attrs_of=None):
        """Run ``fn`` inside a span called ``name``."""
        kwargs = kwargs or {}
        parent, parent_utt = self.current()
        span_id = next(self._ids)
        utt = utt if utt is not None else parent_utt
        stack = self._stack()
        stack.append((span_id, utt))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span = {"id": span_id, "name": name, "start": start, "end": time.perf_counter(),
                    "parent": parent, "utt": utt, "attrs": {}}
            stack.pop()
            self.spans.append(span)
        if attrs_of:
            span["attrs"] = attrs_of(args, kwargs, result)
        return result

    def adopt(self, context, fn, args, kwargs):
        """Run ``fn`` on this thread as a child of ``context``."""
        stack = self._stack()
        stack.append(context)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def install(self, pipeline):
        """Replace the layer names of ``gsskit.pipeline`` with wrappers."""
        for attr, layer in LAYER_OF.items():
            original = getattr(pipeline, attr)
            self._saved[attr] = original
            setattr(pipeline, attr, self._wrapper(attr, layer, original))
        self._saved["ThreadPoolExecutor"] = pipeline.ThreadPoolExecutor
        pipeline.ThreadPoolExecutor = self._pool_class()

    def uninstall(self, pipeline):
        for attr, original in self._saved.items():
            setattr(pipeline, attr, original)
        self._saved.clear()

    def _wrapper(self, attr, layer, original):
        attrs_of = ATTRS_OF.get(attr)
        tracer = self

        def traced(*args, **kwargs):
            utt = None
            if attr == "enhance_utterance":
                u = args[0]
                utt = f"{u.session_id}/{u.speaker_id}-{u.start_samples}"
            return tracer.call(layer, original, args, kwargs, utt=utt, attrs_of=attrs_of)

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                context = tracer.current()
                submitted = time.perf_counter()

                def run(*a, **k):
                    tracer.waits.append(time.perf_counter() - submitted)
                    return tracer.adopt(context, fn, a, k)

                return super().submit(run, *args, **kwargs)

        return TracedPool


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Span id -> duration minus the part covered by its children."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }
