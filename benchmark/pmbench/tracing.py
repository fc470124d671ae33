"""Outside-in span recorder for the pmrope modules.

The recorder wraps public functions of the package where the calling module
looks them up, so a call made through ``training.decoder_batch`` and one made
through ``model.decoder_batch`` are both seen. Nothing under ``src/`` changes;
``uninstall`` puts every original binding back.

Spans carry an id, a parent id, the layer (module) and function name, start
and end times and a request or step id. High-frequency leaf calls (matmul,
attention, rotations, sampling, the per-op backward closures) are aggregated
instead of kept one by one. A layer's self time is the time its spans last
minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

LAYERS = ("numerics", "positional", "model", "checkpoint", "training", "duration",
          "decoding", "metrics", "synthcorpus", "cli")

#: ops whose backward time is reported on its own; every other op lands in "other"
BACKWARD_OPS = ("matmul", "attention", "rotate_heads", "rms_norm", "gelu", "embed",
                "cross_entropy")

#: every tensor op of the numerics module, timed forward as a leaf
NUMERICS_OPS = ("matmul", "reshape", "add", "mul", "scale", "sum_all", "softmax", "rms_norm",
                "gelu", "cross_entropy", "embed")

BENCH_LAYER = "bench"


class Tracer:
    """In-memory spans plus per-(layer, name, parent, arm, phase) aggregates."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []   # (id, parent id, layer, name, start, end, ctx, arm)
        # key (layer, name, parent, arm, phase) -> [calls, total_s, self_s]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        # key (counter, arm, phase) -> value
        self.counters = defaultdict(float)
        self.first_step = {}  # training.train span id -> time its first step began
        self.arm = None
        self.phase = None
        self.ctx = None
        self.tape_depth = 0
        self._stack = []  # open spans: [id, layer, name, start, child_s]
        self._next_id = 1
        self._steps = 0
        self._requests = 0

    # -- spans -------------------------------------------------------------

    def enter(self, layer: str, name: str) -> list:
        frame = [self._next_id, layer, name, self.clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, leaf: bool = False) -> None:
        end = self.clock()
        stack = self._stack
        while stack and stack[-1] is not frame:  # an exception skipped inner exits
            stack.pop()
        stack.pop()
        span_id, layer, name, start, child_s = frame
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[4] += duration
        key = (layer, name, f"{parent[1]}.{parent[2]}" if parent else None,
               self.arm, self.phase)
        stat = self.stats[key]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_s
        if not leaf:
            self.spans.append((span_id, parent[0] if parent else None, layer, name,
                               start, end, self.ctx, self.arm))

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        frame = self.enter(layer, name)
        try:
            yield
        finally:
            self.exit(frame)

    def count(self, counter: str, value: float = 1.0) -> None:
        self.counters[(counter, self.arm, self.phase)] += value

    # -- queries -----------------------------------------------------------

    def _match(self, key, layer, name, parent, arm, phase) -> bool:
        k_layer, k_name, k_parent, k_arm, k_phase = key
        return ((layer is None or k_layer == layer) and (name is None or k_name == name)
                and (parent is None or k_parent == parent)
                and (arm is None or k_arm == arm) and (phase is None or k_phase == phase))

    def total_s(self, layer=None, name=None, parent=None, arm=None, phase=None) -> float:
        return sum(s[1] for k, s in self.stats.items()
                   if self._match(k, layer, name, parent, arm, phase))

    def calls(self, layer=None, name=None, parent=None, arm=None, phase=None) -> int:
        return sum(s[0] for k, s in self.stats.items()
                   if self._match(k, layer, name, parent, arm, phase))

    def counter(self, counter: str, arm=None, phase=None) -> float:
        return sum(v for (c, a, p), v in self.counters.items()
                   if c == counter and (arm is None or a == arm)
                   and (phase is None or p == phase))

    def self_times(self) -> dict:
        """Seconds of self time per layer, every layer listed."""
        table = {layer: 0.0 for layer in LAYERS + (BENCH_LAYER,)}
        for (layer, *_), stat in self.stats.items():
            table[layer] = table.get(layer, 0.0) + stat[2]
        return table

    def train_step_coverage(self) -> float:
        """Share of training-step wall time covered by child spans of train().

        The step region of each train() call runs from the first step's tape
        entry to the end of the call; it holds the steps, the final validation
        and checkpoint writes.
        """
        first = self.first_step
        region = covered = 0.0
        for span_id, parent, _, _, start, end, _, _ in self.spans:
            if span_id in first:
                region += end - first[span_id]
            elif parent in first and start >= first[parent]:
                covered += end - start
        return covered / region if region else 0.0

    # -- patching ----------------------------------------------------------

    def install(self, package) -> "Installation":
        """Wrap the package's public functions; returns the undo handle."""
        return Installation(self, package)


class Installation:
    """The set of replaced bindings, undone by ``uninstall``."""

    def __init__(self, tracer: Tracer, package):
        self.tracer = tracer
        self._undo = []
        self._modules = [m for name, m in sorted(sys.modules.items())
                         if name == package.__name__ or name.startswith(package.__name__ + ".")]
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules}
        numerics, model = mods["numerics"], mods["model"]

        def leaf(module, attr, **kw):
            self._wrap_everywhere(getattr(mods[module], attr), module, attr, leaf=True, **kw)

        def node(module, attr, **kw):
            self._wrap_everywhere(getattr(mods[module], attr), module, attr, leaf=False, **kw)

        def count_decoder_rows(args, kwargs):
            streams, config = args[0], args[6]
            tracer.count("decoder_positions", streams.size)
            tracer.count("decoder_rows", streams.shape[0])
            pad = model.SpecialTokens.for_vocab(config.audio_vocab).pad
            tracer.count("pad_positions", int((streams == pad).sum()))

        def count_generation(args, kwargs, result):
            tracer.count("requests")
            tracer.count("tokens_emitted", result.generated_len)
            tracer.count("decode_steps", result.generated_len + (result.stop_reason == "eos"))
            tracer.count("eos_stops", result.stop_reason == "eos")

        def arm_of(args, kwargs):
            return "on" if args[1].pm_rope_enabled else "off"

        def next_request(args, kwargs):
            tracer._requests += 1
            tracer.ctx = f"request{tracer._requests}"

        for attr in NUMERICS_OPS:
            leaf("numerics", attr)
        leaf("positional", "rotate_heads")
        leaf("model", "attention")
        node("model", "encode_batch")
        node("model", "decoder_batch", before=count_decoder_rows)
        node("model", "encode")
        node("model", "decoder_forward")
        node("checkpoint", "save_checkpoint")
        node("checkpoint", "load_checkpoint")
        node("training", "train", phase="step")
        node("training", "batch_loss")
        node("training", "evaluate_loss", phase="eval")
        node("training", "make_batches")
        node("training", "clip_gradients")
        node("training", "adamw_step")
        leaf("duration", "target_token_count")
        node("decoding", "generate", phase="decode", before=next_request, after=count_generation)
        leaf("decoding", "filter_and_sample")
        for attr in ("error_rate", "style_similarity", "bootstrap_ci", "wilson_interval",
                     "duration_accuracy"):
            leaf("metrics", attr)
        node("synthcorpus", "generate_corpus")
        node("synthcorpus", "load_corpus")
        node("synthcorpus", "save_corpus")
        node("cli", "main")
        node("cli", "evaluate_model", arm=arm_of)

        self._patch_tape(numerics.Tape)
        for module in (numerics, mods["positional"], model):
            self._patch_record_op(module)
        self._patch_report_open(mods["cli"])

    # -- helpers -----------------------------------------------------------

    def _set(self, owner, attr, value, existed=True):
        old = owner.__dict__.get(attr) if existed else None
        self._undo.append((owner, attr, old, existed))
        setattr(owner, attr, value)

    def _wrap_everywhere(self, fn, layer, name, leaf, phase=None, arm=None,
                         before=None, after=None):
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved = (tracer.phase, tracer.arm)
            if phase is not None:
                tracer.phase = phase
            if arm is not None:
                tracer.arm = arm(args, kwargs)
            if before is not None:
                before(args, kwargs)
            frame = tracer.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, leaf)
                tracer.phase, tracer.arm = saved
            if after is not None:
                after(args, kwargs, result)
            return result

        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def _patch_tape(self, tape_cls):
        tracer = self.tracer
        enter, exit_, backward = tape_cls.__enter__, tape_cls.__exit__, tape_cls.backward

        def traced_enter(tape):
            tracer.tape_depth += 1
            if tracer.phase == "step":
                tracer._steps += 1
                tracer.ctx = f"step{tracer._steps}"
                train_spans = [f for f in tracer._stack if (f[1], f[2]) == ("training", "train")]
                if train_spans:
                    tracer.first_step.setdefault(train_spans[-1][0], tracer.clock())
            return enter(tape)

        def traced_exit(tape, exc_type, exc, tb):
            tracer.tape_depth -= 1
            return exit_(tape, exc_type, exc, tb)

        def traced_backward(tape, loss):
            frame = tracer.enter("numerics", "backward")
            try:
                return backward(tape, loss)
            finally:
                tracer.exit(frame)

        self._set(tape_cls, "__enter__", traced_enter)
        self._set(tape_cls, "__exit__", traced_exit)
        self._set(tape_cls, "backward", traced_backward)

    def _patch_record_op(self, module):
        """Time each op's backward closure; count the records a tape keeps."""
        tracer = self.tracer
        record_op = module.record_op

        def traced_record_op(out_data, inputs, vjp):
            if not tracer.tape_depth:
                return record_op(out_data, inputs, vjp)
            op = sys._getframe(1).f_code.co_name
            name = "backward." + (op if op in BACKWARD_OPS else "other")

            def timed_vjp(g):
                frame = tracer.enter("numerics", name)
                try:
                    return vjp(g)
                finally:
                    tracer.exit(frame, leaf=True)

            out = record_op(out_data, inputs, timed_vjp)
            if out.requires_grad:
                tracer.count("tape_records")
            return out

        self._set(module, "record_op", traced_record_op)

    def _patch_report_open(self, cli_module):
        """Time report writes: the CLI opens report files through builtin open."""
        tracer = self.tracer

        def traced_open(*args, **kwargs):
            mode = args[1] if len(args) > 1 else kwargs.get("mode", "r")
            if "w" not in mode:
                return open(*args, **kwargs)
            frame = tracer.enter("cli", "report_write")
            return _TimedFile(open(*args, **kwargs), lambda: tracer.exit(frame))

        self._set(cli_module, "open", traced_open, existed="open" in vars(cli_module))

    def uninstall(self) -> None:
        for owner, attr, old, existed in reversed(self._undo):
            if existed:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()


class _TimedFile:
    """File proxy that closes its span when the file is closed."""

    def __init__(self, fh, done):
        self._fh = fh
        self._done = done

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            return self._fh.__exit__(exc_type, exc, tb)
        finally:
            self._finish()

    def close(self):
        try:
            self._fh.close()
        finally:
            self._finish()

    def _finish(self):
        if self._done is not None:
            done, self._done = self._done, None
            done()

    def __getattr__(self, name):
        return getattr(self._fh, name)
