"""Spans around calls into avfusion's public functions, patched from outside.

A traced round patches each wrapped name in the module that calls it
(``experiment`` and ``cli`` import names into their own namespaces), records
one span per call (name, start, end, parent span, thread), and restores the
originals when the round ends (``patched``, which the harness's own hooks
use too). Spans stay in memory until the run writes
them out. A layer metric ``<module>.<what>_s`` is the summed self time of
its spans: span time minus the part of it that child spans cover.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict

from avfusion import cli, experiment, nn
from avfusion.nn import layers, training

TIME_METRICS = (
    "corpus.build_world_s", "corpus.sample_utterance_s", "corpus.mix_noise_s",
    "corpus.stream_posteriors_s", "corpus.joint_posteriors_s",
    "corpus.media_io_s",
    "reliability.vector_s", "reliability.video_features_s",
    "experiment.training_items_s",
    "nn.train_s", "nn.adam_step_s", "nn.forward_s", "nn.backward_s",
    "nn.recurrent_forward_s", "nn.recurrent_backward_s", "nn.validation_s",
    "fusion.oracle_s", "fusion.train_dfn_s", "fusion.train_dsw_s",
    "fusion.dfn_fuse_s",
    "decode.viterbi_s", "decode.forced_align_s", "decode.wer_s",
    "core.matrix_write_s", "core.matrix_read_s",
    "cli.synth_s", "cli.extract_s", "cli.train_s", "cli.fuse_s",
    "cli.decode_s", "cli.evaluate_s",
)
COUNT_METRICS = {
    "corpus.mix_noise_calls": "count",
    "corpus.stream_posteriors_calls": "count",
    "reliability.vector_frames": "frames",
    "experiment.training_items": "count",
    "nn.optimizer_steps": "count",
    "fusion.oracle_calls": "count",
    "fusion.oracle_frames": "frames",
    "fusion.dfn_fuse_frames": "frames",
    "decode.viterbi_calls": "count",
    "decode.viterbi_frames": "frames",
    "core.matrix_write_bytes": "bytes",
    "core.matrix_read_bytes": "bytes",
}
TRACE_METRICS = ("trace.overhead_s", "trace.unattributed_s")


@contextlib.contextmanager
def patched(table):
    """Replace each ``owner.attribute`` by ``wrap(original)`` for the
    duration, in table order (a later row wraps an earlier one), and put
    the originals back afterwards."""
    saved = []
    try:
        for owner, attr, wrap in table:
            original = owner.__dict__[attr]
            setattr(owner, attr, wrap(original))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _rows(mat) -> int:
    return int(getattr(mat, "frames", mat).shape[0])


def _one(*_):
    return 1


# (owner, attribute, span name, {count metric: f(args, kwargs, result)})
def _targets():
    c = {"corpus.mix_noise_calls": _one}
    return [
        (experiment, "build_world", "corpus.build_world_s", {}),
        (cli, "build_world", "corpus.build_world_s", {}),
        (experiment, "sample_utterance", "corpus.sample_utterance_s", {}),
        (experiment, "mix_noise", "corpus.mix_noise_s", c),
        (cli, "mix_noise", "corpus.mix_noise_s", c),
        (experiment, "compute_stream_posteriors", "corpus.stream_posteriors_s",
         {"corpus.stream_posteriors_calls": _one}),
        (experiment, "compute_joint_posteriors", "corpus.joint_posteriors_s",
         {}),
        (cli, "save_audio_wav", "corpus.media_io_s", {}),
        (cli, "load_audio_wav", "corpus.media_io_s", {}),
        (cli, "save_video_raw", "corpus.media_io_s", {}),
        (cli, "load_video_raw", "corpus.media_io_s", {}),
        (experiment, "reliability_features", "reliability.vector_s",
         {"reliability.vector_frames": lambda a, k, r: _rows(r)}),
        (cli, "reliability_features", "reliability.vector_s",
         {"reliability.vector_frames": lambda a, k, r: _rows(r)}),
        (experiment, "video_signal_features", "reliability.video_features_s",
         {}),
        (cli, "video_signal_features", "reliability.video_features_s", {}),
        (experiment, "build_training_items", "experiment.training_items_s",
         {"experiment.training_items": lambda a, k, r: len(r)}),
        (nn, "train", "nn.train_s", {}),
        (nn.Adam, "step", "nn.adam_step_s", {"nn.optimizer_steps": _one}),
        (layers.Network, "forward", "nn.forward_s", {}),
        (layers.Network, "backward", "nn.backward_s", {}),
        (layers.LSTM, "forward", "nn.recurrent_forward_s", {}),
        (layers.BLSTM, "forward", "nn.recurrent_forward_s", {}),
        (layers.LSTM, "backward", "nn.recurrent_backward_s", {}),
        (layers.BLSTM, "backward", "nn.recurrent_backward_s", {}),
        (training, "evaluate", "nn.validation_s", {}),
        (experiment, "oracle_weights", "fusion.oracle_s",
         {"fusion.oracle_calls": _one,
          "fusion.oracle_frames": lambda a, k, r: _rows(r.weights)}),
        (experiment, "oracle_weights_batch", "fusion.oracle_s",
         {"fusion.oracle_calls": _one,
          "fusion.oracle_frames":
              lambda a, k, r: sum(_rows(w.weights) for w in r)}),
        (experiment, "train_dfn", "fusion.train_dfn_s", {}),
        (experiment, "train_weight_estimator", "fusion.train_dsw_s", {}),
        (experiment, "dfn_fuse", "fusion.dfn_fuse_s",
         {"fusion.dfn_fuse_frames": lambda a, k, r: _rows(r)}),
        (experiment, "viterbi_decode_batch", "decode.viterbi_s",
         {"decode.viterbi_calls": _one,
          "decode.viterbi_frames":
              lambda a, k, r: sum(len(d.states) for d in r)}),
        (cli, "viterbi_decode", "decode.viterbi_s",
         {"decode.viterbi_calls": _one,
          "decode.viterbi_frames": lambda a, k, r: len(r.states)}),
        (experiment, "forced_align", "decode.forced_align_s", {}),
        (experiment, "wer", "decode.wer_s", {}),
        (cli, "wer", "decode.wer_s", {}),
        (cli, "write_matrix", "core.matrix_write_s",
         {"core.matrix_write_bytes":
              lambda a, k, r: 16 + 4 * int(getattr(a[1], "size", 0))}),
        (cli, "read_matrix", "core.matrix_read_s",
         {"core.matrix_read_bytes": lambda a, k, r: 16 + 4 * int(r.size)}),
    ]


class Tracer:
    """Span recorder; ``patches`` gives the table of wrapped targets.

    A span opened on a worker thread with no open span of its own takes the
    main thread's innermost open span as its parent, so a stage's self time
    does not count the time its pool threads spend inside traced calls.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, thread]
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._main_stack: list[list] = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = [name, time.perf_counter(), None, parent,
                threading.get_ident()]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name: str, counters: dict):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            for metric, count in counters.items():
                tracer.counts[metric] += count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patches(self) -> list:
        """(owner, attribute, wrap) rows for ``patched``."""
        return [(owner, attr,
                 lambda fn, name=name, counters=counters:
                     self._wrap(fn, name, counters))
                for owner, attr, name, counters in _targets()]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append(span)
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            start, end = span[1], span[2]
            covered = union_length(
                [(max(c[1], start), min(c[2], end))
                 for c in children.get(id(span), ())])
            totals[span[0]] += (end - start) - covered
        return totals

    def covered(self, start: float, end: float) -> float:
        """Length of [start, end] that any span covers."""
        return union_length([(max(s[1], start), min(s[2], end))
                             for s in self.spans])

    def layer_metrics(self) -> dict[str, float]:
        times = self.self_times()
        out = {name: float(times.get(name, 0.0)) for name in TIME_METRICS}
        out.update({name: float(self.counts.get(name, 0))
                    for name in COUNT_METRICS})
        return out

    def export(self) -> list[list]:
        """Spans as [id, name, start, end, parent id, thread] rows."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        return [[i, s[0], s[1], s[2],
                 None if s[3] is None else ids[id(s[3])], s[4]]
                for i, s in enumerate(self.spans)]


def union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
