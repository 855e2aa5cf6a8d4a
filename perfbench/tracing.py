"""Spans and counters recorded around the public functions of each module.

The benchmark wraps functions from its own files; the program is unchanged.
Every wrapper is installed by replacing the function object wherever a
`domainlm` module has bound it, because modules import each other's
functions by name. A stage process runs one stage, so nothing is unpatched.

A span is (name, start, end, parent index). A layer's self time is the
duration of its spans minus the part covered by their child spans, so the
self times of all spans partition the root span, which is the whole stage.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from domainlm import analysis, corpus, evaluation, model, training
from domainlm.tokenizer import Tokenizer

# Span name -> per-layer metric holding its self time, in seconds.
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "corpus.load": "corpus.load_s",
    "tokenizer.train": "tokenizer.train_s",
    "tokenizer.encode": "tokenizer.encode_s",
    "training.pack": "training.pack_s",
    "training.masking": "training.masking_s",
    "training.loop": "training.loop_s",
    "training.optimizer": "training.optimizer_s",
    "model.forward": "model.forward_s",
    "model.infer": "model.infer_s",
    "model.head": "model.head_s",
    "model.checkpoint_save": "model.checkpoint_save_s",
    "model.checkpoint_load": "model.checkpoint_load_s",
    "autodiff.backward": "autodiff.backward_s",
    "trace.probe": "trace.probe_s",
    "evaluation.validation": "evaluation.validation_s",
    "evaluation.final_eval": "evaluation.final_eval_s",
    "analysis.export": "analysis.export_s",
    "analysis.project": "analysis.project_s",
    "analysis.cluster": "analysis.cluster_s",
    "analysis.topics": "analysis.topics_s",
}


def patch_function(original, replacement) -> None:
    """Replace `original` wherever a loaded `domainlm` module has bound it."""
    for name, mod in list(sys.modules.items()):
        if name == "domainlm" or name.startswith("domainlm."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def patch_method(cls, attr: str, make) -> None:
    """Replace a method (or classmethod) by `make(function)`."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


class StageHooks:
    """Hooks active in every run, traced or not: they count, they do not time.

    They count tokens fed to the encoder (with and without a gradient tape)
    and keep a reference to each checkpoint object saved, so its fingerprint
    can be compared with the file once the timed region is over.
    """

    def __init__(self):
        self.train_tokens = 0
        self.infer_tokens = 0
        self.saved: list[tuple[str, object]] = []
        forward = model.encoder_forward
        save = model.save_checkpoint

        def counted_forward(params, config, ids, *args, **kwargs):
            out = forward(params, config, ids, *args, **kwargs)
            mask = kwargs.get("pad_mask", args[0] if args else None)
            n = int(np.asarray(ids).size if mask is None else np.count_nonzero(mask))
            if out.requires_grad:
                self.train_tokens += n
            else:
                self.infer_tokens += n
            return out

        def captured_save(checkpoint, path):
            self.saved.append((str(path), checkpoint))
            return save(checkpoint, path)

        patch_function(forward, counted_forward)
        patch_function(save, captured_save)

    def fingerprints(self) -> dict[str, str]:
        """File name -> fingerprint of the last checkpoint saved under it."""
        return {path.rsplit("/", 1)[-1]: ckpt.fingerprint() for path, ckpt in self.saved}


class Tracer:
    """Spans in memory plus counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def current(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def wrap(self, fn, name: str, after=None):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for fn in (corpus.load_corpus, corpus.read_split_manifest, corpus.select_documents):
            patch_function(fn, self.wrap(fn, "corpus.load"))
        patch_function(training.pack_segments, self.wrap(training.pack_segments, "training.pack"))
        for fn in (training.apply_dynamic_masking, training.assemble_mlm_batch):
            patch_function(fn, self.wrap(fn, "training.masking"))
        for fn in (training.pretrain_mlm, training.finetune_classifier):
            patch_function(fn, self.wrap(fn, "training.loop"))
        for fn in (model.mlm_logits_from_hidden, model.cls_logits_from_hidden, model.cross_entropy):
            patch_function(fn, self.wrap(fn, "model.head"))
        patch_function(model.save_checkpoint, self.wrap(model.save_checkpoint, "model.checkpoint_save"))
        patch_function(model.load_checkpoint, self.wrap(model.load_checkpoint, "model.checkpoint_load"))
        patch_function(evaluation.evaluate_classifier, self.wrap(evaluation.evaluate_classifier, "evaluation.final_eval"))
        for fn in (evaluation.evaluate_mlm, evaluation.batched_cls_logits):
            patch_function(fn, self._validation(fn))
        patch_function(model.encoder_forward, self._forward(model.encoder_forward))
        patch_function(model.backward, self._backward(model.backward))
        patch_function(analysis.export_cls_embeddings, self.wrap(analysis.export_cls_embeddings, "analysis.export"))
        patch_function(analysis.project_2d, self.wrap(analysis.project_2d, "analysis.project"))
        patch_function(analysis.cluster_embeddings, self._cluster(analysis.cluster_embeddings))
        patch_function(analysis.cbtfidf_topics, self.wrap(analysis.cbtfidf_topics, "analysis.topics"))

        def count_merges(args, kwargs, result):
            self.counts["tokenizer.merges"] += len(result.merges)

        def count_tokens(args, kwargs, result):
            self.counts["tokenizer.encode_tokens"] += len(result)

        patch_method(Tokenizer, "train", lambda fn: self.wrap(fn, "tokenizer.train", count_merges))
        patch_method(Tokenizer, "encode", lambda fn: self.wrap(fn, "tokenizer.encode", count_tokens))
        patch_method(training.AdamW, "step", lambda fn: self.wrap(fn, "training.optimizer"))

    def _validation(self, fn):
        # Batched evaluation inside the final evaluation belongs to that span.
        def wrapper(*args, **kwargs):
            if self.current() == "evaluation.final_eval":
                return fn(*args, **kwargs)
            index = self.open("evaluation.validation")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def _forward(self, fn):
        def wrapper(params, config, ids, *args, **kwargs):
            index = self.open("model.forward")
            try:
                out = fn(params, config, ids, *args, **kwargs)
            finally:
                self.close(index)
            if out.requires_grad:
                batch, length = np.asarray(ids).reshape(-1, np.shape(ids)[-1]).shape
                self.counts["model.forward_flops"] += forward_flops(config, batch, length)
            else:
                self.spans[index][0] = "model.infer"
            return out

        return wrapper

    def _backward(self, fn):
        def wrapper(loss, params):
            if "autodiff.tape_nodes" not in self.counts:
                index = self.open("trace.probe")
                dtype = next(iter(params.values())).data.dtype
                nodes, nbytes, off_dtype = walk_tape(loss, dtype)
                self.close(index)
                self.counts["autodiff.tape_nodes"] = nodes
                self.counts["autodiff.tape_mb"] = nbytes / 2**20
                self.counts["autodiff.off_dtype_nodes"] = off_dtype
            self.counts["training.steps"] += 1
            index = self.open("autodiff.backward")
            try:
                return fn(loss, params)
            finally:
                self.close(index)

        return wrapper

    def _cluster(self, fn):
        # The allocation peak comes from a second call under tracemalloc, in
        # its own span, because tracemalloc slows the clustering loop several
        # times over and would distort analysis.cluster_s.
        def wrapper(*args, **kwargs):
            index = self.open("analysis.cluster")
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            index = self.open("trace.probe")
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.counts["analysis.cluster_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
                self.close(index)
            self.counts["analysis.clusters"] = result.n_clusters
            self.counts["analysis.outlier_share"] = len(result.outliers()) / max(1, len(result.assignments))
            return result

        return wrapper

    # -- summaries -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced stage (one root span)."""
        spans = self.spans
        self_time = [s[2] - s[1] for s in spans]
        for name, start, end, parent in spans:
            if parent is not None:
                self_time[parent] -= end - start
        out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
        for span, t in zip(spans, self_time):
            out[SELF_TIME_METRICS[span[0]]] += t
        stage = spans[0][2] - spans[0][1]
        validation = sum(s[2] - s[1] for s in spans if s[0] == "evaluation.validation")
        out["trace.stage_s"] = stage
        out["evaluation.validation_share"] = validation / stage
        forward_s = sum(s[2] - s[1] for s in spans if s[0] == "model.forward")
        out["model.forward_gflops"] = self.counts["model.forward_flops"] / forward_s / 1e9 if forward_s else 0.0
        out["training.step_ms.p50"] = step_ms_p50(spans)
        for key in (
            "tokenizer.merges", "tokenizer.encode_tokens", "training.steps", "autodiff.tape_nodes",
            "autodiff.tape_mb", "autodiff.off_dtype_nodes", "analysis.cluster_peak_mb", "analysis.clusters",
            "analysis.outlier_share",
        ):
            out[key] = float(self.counts.get(key, 0.0))
        return out

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def forward_flops(config, batch: int, length: int) -> float:
    """Matmul FLOPs of one encoder forward: projections, attention, feed-forward."""
    h, f = config.hidden_dim, config.ff_dim
    tokens = batch * length
    per_layer = 8 * tokens * h * h + 4 * tokens * length * h + 4 * tokens * h * f
    return float(config.num_layers * per_layer)


def walk_tape(loss, dtype) -> tuple[int, int, int]:
    """Read-only walk of the recorded graph: (nodes, bytes of node data, nodes not in `dtype`).

    Holds only ids once a node is visited, so no reference outlives the walk.
    """
    seen: set[int] = set()
    stack = [loss]
    nbytes = off_dtype = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        off_dtype += node.data.dtype != dtype
        stack.extend(node._parents)
    return len(seen), nbytes, off_dtype


def step_ms_p50(spans) -> float:
    """Median time between consecutive optimizer steps, in ms.

    Intervals that contain a validation pass or a checkpoint write are
    evaluation steps and are left out, as is the first step.
    """
    ends = [s[2] for s in spans if s[0] == "training.optimizer"]
    excluded = [(s[1], s[2]) for s in spans if s[0] in ("evaluation.validation", "model.checkpoint_save")]
    intervals = [
        (b - a) * 1e3
        for a, b in zip(ends, ends[1:])
        if not any(a <= start and end <= b for start, end in excluded)
    ]
    return statistics.median(intervals) if intervals else 0.0
