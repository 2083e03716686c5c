"""Outside-in span tracer for the supermap_forge layers.

The tracer replaces each listed public function with a timing wrapper at
every place the package binds it: the defining module, every other
``supermap_forge`` module that imported it by name, and the package
namespace.  Nothing under ``src/`` is edited; ``restore()`` puts the
originals back.

Spans are recorded only inside an operation opened with ``op()``, so the
benchmark's own bookkeeping (writing documents, checking results) never
lands in a layer's numbers.  Each span keeps its name, start, end, parent
span and the id of the instance it belongs to; they stay in memory until
``write()`` dumps them at the end of the run.
"""

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "supermap_forge"

# (module, attribute path) of every wrapped function; a dotted path names a
# classmethod on a class of that module.
TARGETS = (
    ("gen", "random_supermap_from_circuit"),
    ("gen", "random_channel"),
    ("supermap", "verify_deterministic"),
    ("supermap", "traceout_kernel_basis"),
    ("supermap", "extract_n"),
    ("supermap", "partial_trace_out"),
    ("cpmaps", "apply"),
    ("cpmaps", "is_cp"),
    ("cpmaps", "kraus_from_choi"),
    ("cpmaps", "choi_from_action"),
    ("cpmaps", "compose"),
    ("cpmaps", "CpMap.from_kraus"),
    ("cpmaps", "dilation_from_kraus"),
    ("cpmaps", "minimal_stinespring"),
    ("cpmaps", "environment_intertwiner"),
    ("realize", "realize"),
    ("realize", "left_dilation"),
    ("realize", "solve_w"),
    ("realize", "assemble_e"),
    ("realize", "assemble_g"),
    ("realize", "check_realisation"),
    ("realize", "circuit_choi_action"),
    ("realize", "evaluate_circuit"),
    ("serialize", "load_supermap"),
    ("serialize", "decode_matrix"),
    ("serialize", "realisation_document"),
    ("serialize", "encode_matrix"),
    ("serialize", "save_document"),
    ("cli", "main"),
)

NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.absent = []
        self.spans = []  # [name, start, end, parent span or -1, instance]
        self.op_wall = 0.0
        self.top_wall = 0.0
        self._stack = []  # [span index, time covered by child spans]
        self._instance = None
        self._hooks = {}
        self._patches = []  # (owner, attribute, original value)

    # -- installing -------------------------------------------------------

    def install(self, hooks=None):
        """Wrap every target; a target missing from the package is recorded
        in ``absent`` instead of failing.  ``hooks`` maps a traced name to a
        callable that receives each return value of that function."""
        self._hooks = dict(hooks or {})
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for (mod_name, attr), name in zip(TARGETS, NAMES):
            try:
                # import_module returns the module even where a package
                # attribute of the same name shadows it (supermap_forge.realize).
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(meth) if isinstance(owner, type) else None
                if not isinstance(raw, classmethod):
                    self.absent.append(name)
                    continue
                self._patch(owner, meth, classmethod(self._wrap(name, raw.__func__)))
                continue
            orig = getattr(module, attr, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def restore(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._instance is None:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_wall += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                spans[sid] = [name, start, end, parent, self._instance]
            if hook is not None:
                hook(result)
            return result

        return traced

    # -- recording --------------------------------------------------------

    @contextmanager
    def op(self, instance):
        """Record spans for one timed operation of the given instance."""
        self._instance = instance
        start = time.perf_counter()
        try:
            yield
        finally:
            self.op_wall += time.perf_counter() - start
            self._instance = None

    def coverage(self):
        """Share of the operations' wall time spent inside top-level spans."""
        return self.top_wall / self.op_wall if self.op_wall > 0 else 0.0

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                if s is not None:
                    f.write(json.dumps(s) + "\n")
