"""Spans around partfan's public functions, recorded from outside the program.

``Tracer.install`` replaces each listed function with a timing wrapper at
every partfan module that binds it (and on the class for methods), so a
call from one layer into another becomes a child span.  Spans stay in
memory and are written out when the run ends.  A function's self time is
its span's duration minus the time its child spans cover; nothing in
partfan runs concurrently, so children never overlap.

The two exact-arithmetic kernels, ``rational.dot`` and ``rational.rref``,
run millions of times per job.  They are counted and timed like every
other function, and their time is taken off their parent's self time, but
they do not store a span of their own: that would hold the whole run's
kernel calls in memory.
"""

import json
import sys
from time import perf_counter

# (module, qualified name) of every wrapped function, grouped by layer.
WRAPPED = (
    ("rational", "rref"), ("rational", "dot"),
    ("cones", "extreme_rays"), ("cones", "strict_sign_feasible"),
    ("cones", "intersect_generated_cones"), ("cones", "fulldim_in_halfspaces"),
    ("fan", "build_fan"), ("fan", "validate_fan"), ("fan", "Fan.projected_cone"),
    ("fan", "Fan.project_star"), ("fan", "Fan.star"),
    ("arrangement", "arrangement_fan"), ("arrangement", "flats"),
    ("arrangement", "shards"), ("arrangement", "shard_partition"),
    ("arrangement", "wa_certify"),
    ("partition", "potential_identifications"), ("partition", "admissible_closure"),
    ("partition", "is_admissible"), ("partition", "enumerate_admissible"),
    ("category", "build_category"), ("category", "check_cubical"),
    ("category", "check_last_factor_compatibility"),
    ("cw", "build_cw"), ("cw", "pi1_presentation"),
    ("poset", "check_weak_fan_poset"), ("poset", "facial_interval"),
    ("poset", "rank2_bisector_poset"), ("poset", "FanPoset.maximal_chains"),
    ("groups", "picture_group"), ("groups", "functor_check"),
    ("groups", "words_equal"), ("groups", "abelianization"),
    ("groups", "rank2_faithfulness_certificate"),
    ("cli", "main"),
)
KERNELS = {"rational.dot", "rational.rref"}
SIZE_COUNTS = ("size.cones", "size.morphisms", "size.compose_entries",
               "size.relators", "size.intervals", "size.union_failures",
               "groups.words_equal.proved", "cli.json_in_bytes", "cli.json_out_bytes")


class Tracer:
    def __init__(self):
        self.spans = []          # (job, span id, parent id, name, start, end)
        self.stack = []          # open frames: [span id, child seconds]
        self.calls = {}
        self.self_s = {}
        self.counts = dict.fromkeys(SIZE_COUNTS, 0)
        self.job = None
        self._next_id = 0

    def install(self):
        """Wrap every listed function at each partfan module that binds it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "partfan" or name.startswith("partfan.")}
        for module, qual in WRAPPED:
            name = "%s.%s" % (module, qual)
            owner = modules["partfan." + module]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
                continue
            original = getattr(owner, qual)
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        kernel = name in KERNELS
        proved = name == "groups.words_equal"
        stack = self.stack

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if not kernel:
                    self.spans.append((self.job, span_id,
                                       None if parent is None else parent[0],
                                       name, start, end))
            if proved and result:
                self.counts["groups.words_equal.proved"] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def metrics(self):
        out = {}
        for module, qual in WRAPPED:
            name = "%s.%s" % (module, qual)
            out[name + ".calls"] = {"value": self.calls[name], "unit": "count"}
            out[name + ".self_s"] = {"value": self.self_s[name], "unit": "s"}
        for name in SIZE_COUNTS:
            out[name] = {"value": self.counts[name], "unit": "count"}
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for job, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps([job, span_id, parent, name, start, end]))
                handle.write("\n")
