"""Per-layer call counts and self times, measured from outside the program.

For the length of a traced pass, wrappers replace public functions and
methods of the teamlogic modules.  A function is replaced in every
teamlogic module that binds it, since games and translate import
tarski by name.  Hot leaves such as eval_term and tarski are only
aggregated: each wrapped name keeps a call count and a self-time sum,
and one span is stored per query.  Self time is a call's duration minus
the time spent in wrapped calls it made.

A name that no longer exists is reported as missing, and the metrics
that depend on it are left out rather than reported as 0.
"""

import sys
import time

# (metric prefix, module, attribute, class attribute or None, record time?)
WRAPPED = (
    ("syntax.parse", "syntax", "parse", None, True),
    ("syntax.is_first_order", "syntax", "is_first_order", None, False),
    ("model.eval_term", "model", "eval_term", None, True),
    ("model.Team", "model", "Team", "__init__", True),
    ("model.Assignment", "model", "Assignment", "__init__", False),
    ("model.Model.with_relation", "model", "Model", "with_relation", True),
    ("model.Model.with_function", "model", "Model", "with_function", True),
    ("semantics.Evaluator.sat", "semantics", "Evaluator", "sat", True),
    ("semantics.largest_subteam", "semantics", "Evaluator", "largest_subteam", True),
    ("semantics.tarski", "semantics", "tarski", None, True),
    ("semantics.check_atom", "semantics", "check_atom", None, True),
    ("games.build_arena", "games", "build_arena", None, True),
    ("games.find_uniform_winning", "games", "find_uniform_winning", None, True),
    ("translate.compile", "translate", "compile", None, True),
    ("translate.ie_to_eso", "translate", "ie_to_eso", None, True),
    ("translate.eval_eso", "translate", "eval_eso", None, True),
    ("dbdeps.derive", "dbdeps", "derive", None, True),
    ("dbdeps.semantic_implies", "dbdeps", "semantic_implies", None, True),
    ("dbdeps.check_dependency", "dbdeps", "check_dependency", None, False),
    ("dbdeps.find_violation", "dbdeps", "find_violation", None, True),
)


def _positions(arena):
    return len(arena.positions)


def _is_some(value):
    return value is not None


def _prefix_symbols(eso):
    return len(eso.prefix)


def _is_true(value):
    return value is True


# Results folded into a per-name sum: name -> function of the return value.
RESULT_SUMS = {
    "games.build_arena": _positions,
    "games.find_uniform_winning": _is_some,
    "translate.ie_to_eso": _prefix_symbols,
    "semantics.Evaluator.sat": _is_true,
    "dbdeps.derive": _is_some,
}


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.result_sum = {}
        self.missing = []
        self.spans = []
        self._stack = [0.0]
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        for name, module_name, attr, method, timed in WRAPPED:
            module = sys.modules.get("teamlogic." + module_name)
            target = getattr(module, attr, None)
            if target is not None and method is not None:
                owner, target = target, getattr(target, method, None)
            if target is None:
                self.missing.append(name)
                continue
            self.calls[name] = 0
            self.self_s[name] = 0.0
            wrapper = self._wrap(name, target, timed, RESULT_SUMS.get(name))
            if method is not None:
                self._undo.append((owner, method, target))
                setattr(owner, method, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "teamlogic" or mod_name.startswith("teamlogic."):
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            self._undo.append((mod, key, target))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    def _wrap(self, name, fn, timed, fold):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        if fold is not None:
            self.result_sum[name] = 0
        sums = self.result_sum

        if not timed:
            def counting(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counting

        def timing(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - child
            if fold is not None:
                sums[name] += fold(result)
            return result

        return timing

    # -- one span per query -------------------------------------------------

    def begin_query(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def end_query(self, start, index, kind, outcome):
        end = time.perf_counter()
        child = self._stack.pop()
        self.spans.append({"query": index, "kind": kind, "start_s": start,
                           "duration_s": end - start,
                           "glue_self_s": end - start - child,
                           "outcome": outcome})

    # -- metrics ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics by name; names of missing wrappers are absent."""
        calls, self_s, sums = self.calls, self.self_s, self.result_sum
        out = {}

        def put(metric, unit, needs, value):
            if all(n in calls for n in needs):
                out[metric] = {"value": value(), "unit": unit}

        def share(name):
            return sums[name] / calls[name] if calls[name] else 0.0

        copies = ("model.Model.with_relation", "model.Model.with_function")
        for name, _module, _attr, _method, timed in WRAPPED:
            if name in copies or name == "semantics.Evaluator.sat":
                continue
            put(name + ".calls", "count", (name,), lambda n=name: calls[n])
            if timed:
                put(name + ".self_s", "s", (name,), lambda n=name: self_s[n])
        put("model.Model.copies", "count", copies,
            lambda: sum(calls[n] for n in copies))
        put("model.Model.copy_self_s", "s", copies,
            lambda: sum(self_s[n] for n in copies))
        sat = "semantics.Evaluator.sat"
        put(sat + ".calls", "count", (sat,), lambda: calls[sat])
        put(sat + ".true_share", "ratio", (sat,), lambda: share(sat))
        put("semantics.search.self_s", "s", (sat,), lambda: self_s[sat])
        put("games.arena_positions", "count", ("games.build_arena",),
            lambda: sums["games.build_arena"])
        put("games.strategy_share", "ratio", ("games.find_uniform_winning",),
            lambda: share("games.find_uniform_winning"))
        put("translate.eso_prefix_symbols", "count", ("translate.ie_to_eso",),
            lambda: sums["translate.ie_to_eso"])
        put("dbdeps.derive.found_share", "ratio", ("dbdeps.derive",),
            lambda: share("dbdeps.derive"))
        return out
