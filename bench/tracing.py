"""Call tracing for the benchmark's traced run.

The tracer wraps public functions of the teamsim modules from outside the
program: every module attribute bound to a traced function (including the
names other modules imported with ``from .x import f``) is replaced by a
wrapper for the duration of a ``with tracer.installed():`` block.

Every wrapped call pushes a frame, so a call's self time is its duration
minus the time of the wrapped calls it made. Calls are aggregated per
(name, parent name) into count, total and self time. Calls of functions
marked as spans also keep one span record (name, start, end, parent span,
session id); the innermost kernels run tens of thousands of times per
session, so they are only aggregated.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time
from typing import Callable

# (layer, module, function, keep a span per call). Methods are written
# "Class.method". Layers are the teamsim modules; cli is a thin shell over
# these functions and is not traced.
TARGETS = (
    ("population", "teamsim.population", "synth_population", True),
    ("core", "teamsim.core", "surface_deep_rows", False),
    ("core", "teamsim.core", "profile_for_members", False),
    ("core", "teamsim.core", "team_diversity_profile", False),
    ("optimizer", "teamsim.optimizer", "random_partition", True),
    ("optimizer", "teamsim.optimizer", "ga_partition", True),
    ("recommender", "teamsim.recommender", "rank_candidates", True),
    ("agents", "teamsim.agents", "agent_step", True),
    ("protocol", "teamsim.protocol", "AssemblyState.record_query", False),
    ("protocol", "teamsim.protocol", "AssemblyState.record_recommendations", False),
    ("protocol", "teamsim.protocol", "AssemblyState.send_invitation", False),
    ("protocol", "teamsim.protocol", "AssemblyState.respond", False),
    ("protocol", "teamsim.protocol", "AssemblyState.finalize", True),
    ("protocol", "teamsim.protocol", "write_log", True),
    ("session", "teamsim.session", "run_session", True),
    ("session", "teamsim.session", "run_assembly", True),
    ("session", "teamsim.session", "pilot_moments", True),
    ("stats", "teamsim.stats", "anova_f", True),
    ("stats", "teamsim.stats", "pairwise_diffs", True),
    ("stats", "teamsim.stats", "chi2_independence", True),
    ("stats", "teamsim.stats", "logistic_fit", True),
    ("experiment", "teamsim.experiment", "run_experiment", True),
    ("experiment", "teamsim.experiment", "write_report", True),
    ("experiment", "teamsim.experiment", "choice_audit", True),
)

LAYERS = (
    "population",
    "core",
    "optimizer",
    "recommender",
    "agents",
    "protocol",
    "session",
    "stats",
    "experiment",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _assembly_name(args: tuple, kwargs: dict) -> str:
    return "session.run_assembly." + _arg(args, kwargs, 1, "mode")


def _session_id(args: tuple, kwargs: dict) -> str:
    return f"{args[0]}:{kwargs.get('session_index', 0)}"


# Per-function extras: a call name derived from the arguments, the session
# id a call starts, and counters read from the result. All are cheap and
# attached only to functions called a few thousand times per run or less.
NAME_OF: dict[str, Callable] = {"session.run_assembly": _assembly_name}
SESSION_OF: dict[str, Callable] = {"session.run_session": _session_id}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[list] = []
        self.session: str | None = None
        self._stack: list[list] = []
        self._result_hooks: dict[str, Callable] = {}

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def on_result(self, name: str, hook: Callable) -> None:
        """Call hook(tracer, result, args, kwargs) after each call of name."""
        self._result_hooks[name] = hook

    # -- frames --------------------------------------------------------------

    def _open(self, name: str, keep_span: bool) -> list:
        parent = self._stack[-1] if self._stack else None
        span_index = -1
        if keep_span:
            span_index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent[2] if parent else -1, self.session])
        frame = [name, 0.0, span_index, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        name, child_s, span_index, parent = frame
        duration = end - start
        key = (name, parent[0] if parent else "")
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        if parent is not None:
            parent[1] += duration
        if span_index >= 0:
            self.spans[span_index][1] = start
            self.spans[span_index][2] = end

    def _wrap(self, name: str, fn: Callable, keep_span: bool) -> Callable:
        open_ = self._open
        close = self._close
        clock = time.perf_counter
        name_of = NAME_OF.get(name)
        session_of = SESSION_OF.get(name)
        hook = self._result_hooks.get(name)
        tracer = self

        def traced(*args, **kwargs):
            outer_session = tracer.session
            if session_of:
                tracer.session = session_of(args, kwargs)
            frame = open_(name_of(args, kwargs) if name_of else name, keep_span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, start, clock())
                tracer.session = outer_session
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str, session: str | None = None):
        """A span opened by the benchmark itself, such as one repetition."""
        outer_session = self.session
        self.session = session
        frame = self._open(name, True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter())
            self.session = outer_session

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of the traced functions while the block runs."""
        patches: list[tuple[object, str, object]] = []
        try:
            for layer, module_name, attr, keep_span in TARGETS:
                module = importlib.import_module(module_name)
                name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    patches.append((owner, method, original))
                    setattr(owner, method, self._wrap(name, original, keep_span))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, keep_span)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "teamsim" or mod_name.startswith("teamsim.")):
                        continue
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, binding, original))
                            setattr(mod, binding, wrapper)
            yield self
        finally:
            for owner, binding, original in reversed(patches):
                setattr(owner, binding, original)

    # -- derived figures -----------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> tuple[int, float, float]:
        """(count, total s, self s) of name, over all parents or one parent."""
        count = total = self_s = 0
        for (call, caller), (n, t, s) in self.stats.items():
            if call == name and (parent is None or caller == parent):
                count += n
                total += t
                self_s += s
        return count, total, self_s

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (call, _), (_, _, self_s) in self.stats.items():
            layer = call.split(".", 1)[0]
            if layer in out:
                out[layer] += self_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, session) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "session": session,
                        }
                    )
                    + "\n"
                )


# Per-layer metrics of the traced run, in report order: (name, unit).
PER_LAYER = (
    ("core.team_scorings", "count"),
    ("core.score_us", "us"),
    ("optimizer.ga_s", "s"),
    ("optimizer.ga_self_s", "s"),
    ("optimizer.front_size", "entries"),
    ("recommender.rank_calls", "count"),
    ("recommender.candidates", "count"),
    ("recommender.rank_us", "us"),
    ("recommender.us_per_candidate", "us"),
    ("agents.steps", "count"),
    ("agents.exposures", "count"),
    ("agents.step_self_us", "us"),
    ("agents.select_share", "ratio"),
    ("protocol.events", "count"),
    ("protocol.invitations", "count"),
    ("protocol.merge_share", "ratio"),
    ("protocol.fill_share", "ratio"),
    ("protocol.finalize_ms", "ms"),
    ("session.pilot_ms", "ms"),
    ("session.assembly_fit_s", "s"),
    ("session.assembly_fair_s", "s"),
    ("session.profile_ms", "ms"),
    ("population.synth_ms", "ms"),
    ("stats.anova_s", "s"),
    ("stats.pairwise_s", "s"),
    ("stats.permutations", "count"),
    ("stats.perm_us", "us"),
    ("stats.chi2_ms", "ms"),
    ("stats.logistic_ms", "ms"),
    ("experiment.write_s", "s"),
    ("experiment.bytes_written", "bytes"),
    ("experiment.files_written", "count"),
    ("experiment.aggregate_ms", "ms"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.layer_sum_share", "ratio"),
)

# Figures that must repeat exactly for a given seed; a difference between
# two traced repetitions is reported as a failed check.
EXACT = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes", "entries"))

ROOT_SPAN = "bench.rep"


def new_tracer() -> Tracer:
    """A tracer with the result hooks behind the per-layer counters."""
    from teamsim import stats

    pairwise_default = inspect.signature(stats.pairwise_diffs).parameters["n_permutations"].default
    tracer = Tracer()
    tracer.on_result(
        "optimizer.ga_partition", lambda t, result, a, k: t.count("front_entries", len(result[0]))
    )
    tracer.on_result(
        "stats.anova_f", lambda t, result, a, k: t.count("permutations", result.n_permutations)
    )
    tracer.on_result(
        "stats.pairwise_diffs",
        lambda t, result, a, k: t.count(
            "permutations", len(result) * k.get("n_permutations", pairwise_default)
        ),
    )

    def exposures(t: Tracer, result, args, kwargs) -> None:
        t.count("exposures", len(result))
        t.count("selected", sum(e.selected for e in result))

    tracer.on_result("agents.agent_step", exposures)
    return tracer


def layer_metrics(tracer: Tracer, outputs: dict) -> dict[str, float]:
    """Per-layer figures of one traced repetition.

    outputs holds the counts read from the repetition's outputs rather than
    from calls: protocol events, invitations, merges and deadline-fill
    placements of the agency sessions, and the bytes and files written.
    Per-call figures are 0 where the layer is not called.
    """

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_call(name: str, scale: float, *, own: bool = False, parent: str | None = None) -> float:
        n, total, self_s = tracer.calls(name, parent)
        return ratio((self_s if own else total) * scale, n)

    counters = tracer.counters
    scorings = [tracer.calls(n) for n in ("core.surface_deep_rows", "core.profile_for_members")]
    n_scorings = sum(n for n, _, _ in scorings)
    rank_calls, rank_total, _ = tracer.calls("recommender.rank_candidates")
    candidates, _, _ = tracer.calls("core.profile_for_members", "recommender.rank_candidates")
    ga_calls = tracer.calls("optimizer.ga_partition")[0]
    steps = tracer.calls("agents.agent_step")[0]
    sessions = tracer.calls("session.run_session")[0]
    anova = tracer.calls("stats.anova_f")
    pairwise = tracer.calls("stats.pairwise_diffs")
    permutations = counters.get("permutations", 0)
    wall = tracer.calls(ROOT_SPAN)[1]
    layer_self = tracer.layer_self()

    metrics = {
        "core.team_scorings": n_scorings,
        "core.score_us": ratio(sum(t for _, t, _ in scorings) * 1e6, n_scorings),
        "optimizer.ga_s": per_call("optimizer.ga_partition", 1.0),
        "optimizer.ga_self_s": per_call("optimizer.ga_partition", 1.0, own=True),
        "optimizer.front_size": ratio(counters.get("front_entries", 0), ga_calls),
        "recommender.rank_calls": rank_calls,
        "recommender.candidates": candidates,
        "recommender.rank_us": ratio(rank_total * 1e6, rank_calls),
        "recommender.us_per_candidate": ratio(rank_total * 1e6, candidates),
        "agents.steps": steps,
        "agents.exposures": counters.get("exposures", 0),
        "agents.step_self_us": per_call("agents.agent_step", 1e6, own=True),
        "agents.select_share": ratio(counters.get("selected", 0), counters.get("exposures", 0)),
        "protocol.events": outputs["events"],
        "protocol.invitations": outputs["invitations"],
        "protocol.merge_share": ratio(outputs["merges"], outputs["invitations"]),
        "protocol.fill_share": ratio(outputs["fill_members"], outputs["agency_members"]),
        "protocol.finalize_ms": per_call("protocol.finalize", 1e3),
        "session.pilot_ms": per_call("session.pilot_moments", 1e3),
        "session.assembly_fit_s": per_call("session.run_assembly.fit_only", 1.0),
        "session.assembly_fair_s": per_call("session.run_assembly.fairness", 1.0),
        "session.profile_ms": ratio(
            tracer.calls("core.team_diversity_profile", "session.run_session")[1] * 1e3, sessions
        ),
        "population.synth_ms": per_call("population.synth_population", 1e3),
        "stats.anova_s": per_call("stats.anova_f", 1.0),
        "stats.pairwise_s": per_call("stats.pairwise_diffs", 1.0),
        "stats.permutations": permutations,
        "stats.perm_us": ratio((anova[2] + pairwise[2]) * 1e6, permutations),
        "stats.chi2_ms": per_call("stats.chi2_independence", 1e3),
        "stats.logistic_ms": per_call("stats.logistic_fit", 1e3),
        "experiment.write_s": per_call("experiment.write_report", 1.0),
        "experiment.bytes_written": outputs["bytes_written"],
        "experiment.files_written": outputs["files_written"],
        "experiment.aggregate_ms": per_call("experiment.run_experiment", 1e3, own=True),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["bench.self_s"] = tracer.calls(ROOT_SPAN)[2]
    metrics["trace.wall_s"] = wall
    metrics["trace.layer_sum_share"] = ratio(sum(layer_self.values()), wall)
    return metrics
