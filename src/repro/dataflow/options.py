"""The engine's configuration, and nothing else: ``EngineOptions``.

A knob is declared exactly once, as one entry of the :data:`_KNOBS`
table below: its name, default, the coercer that type-checks and
normalizes a value, and its command-line flags.  Everything else is
derived from that table — the constructor's defaulting and per-field
validation, ``from_dict``/``to_dict``, and the
:func:`add_engine_arguments` flag block — so adding a knob is a
one-entry diff.  Only the genuinely cross-field rules (``workers`` ⇒
``executor="remote"``, ``checkpoint_salt`` ⇒ ``checkpoint_dir``,
factory-only knobs vs an ``Executor`` instance) are hand-written code.

:class:`EngineOptions`
    One immutable, validated options object carrying every engine knob.
    Constructible from plain kwargs, a dict (:meth:`EngineOptions.
    from_dict` — what a JSON file or HTTP body parses to), or an argparse
    namespace populated by the shared :func:`add_engine_arguments` helper
    (:meth:`~EngineOptions.from_namespace`).  All validation —
    registry-backed executor names, ``host:port`` worker addresses with
    port-range checks, checkpoint settings — happens once, at
    construction.  :meth:`~EngineOptions.derive` produces per-stage
    variants without re-stating the rest.

Configuration precedence for :meth:`EngineOptions.from_namespace` (the
CLI path) is ``defaults < --engine-options JSON file < explicit flags``.
``options=EngineOptions(...)`` or a shared ``context=`` (the runtime
object, :class:`repro.dataflow.context.DataflowContext`) is the only way
to configure a beam, ``BeamBoundingDriver`` or ``SelectorConfig``.
"""

from __future__ import annotations

import inspect
import json
import numbers
from typing import Any, Callable, Dict, Mapping, NamedTuple
from typing import Optional, Sequence, Tuple

from repro.dataflow.executor import (
    DEFAULT_BROADCAST_MIN_BYTES,
    Executor,
    executor_names,
)

__all__ = [
    "EngineOptions",
    "add_engine_arguments",
    "parse_worker_address",
]


def parse_worker_address(spec: Any) -> Tuple[str, int]:
    """Validate one remote-worker address; returns ``(host, port)``.

    Accepts ``"host:port"`` strings and ``(host, port)`` pairs.  The port
    must parse as an integer in ``[1, 65535]`` and the host must be
    non-empty — checked here, at configuration time, instead of deep
    inside ``RemoteExecutor`` at connect time.
    """
    if isinstance(spec, str):
        host, sep, port_text = spec.rpartition(":")
        if not sep or not host or not port_text.isdigit():
            raise ValueError(
                f"worker address must look like 'host:port', got {spec!r}"
            )
        host, port = host, int(port_text)
    else:
        try:
            host, port = spec
        except (TypeError, ValueError):
            raise ValueError(
                "worker address must be a 'host:port' string or a "
                f"(host, port) pair, got {spec!r}"
            ) from None
        host = str(host)
        try:
            port = int(port)
        except (TypeError, ValueError):
            raise ValueError(
                f"worker port must be an integer, got {port!r}"
            ) from None
        if not host:
            raise ValueError(f"worker host must be non-empty, got {spec!r}")
    if not 1 <= port <= 65535:
        raise ValueError(
            f"worker port must be in [1, 65535], got {port} in {spec!r}"
        )
    return host, port


# -- typed coercers ----------------------------------------------------------
#
# ``coerce(value, label) -> normalized value``; a value of the wrong type
# or range raises ``ValueError`` naming ``label`` (the knob).  They are
# deliberately strict: options arrive from JSON files and HTTP bodies,
# where ``bool("false")`` / ``int(2.7)`` / ``int(True)`` would silently
# turn a typo into a different configuration.


def _executor(value: Any, label: str) -> "str | Executor":
    if isinstance(value, Executor):
        return value
    value = str(value)
    if value not in executor_names():
        raise ValueError(
            f"{label} must be one of {executor_names()} or an Executor "
            f"instance, got {value!r}"
        )
    return value


def _int_at_least(minimum: int) -> Callable[[Any, str], int]:
    def coerce(value: Any, label: str) -> int:
        # numbers.Integral (not int) so NumPy integers keep working;
        # bool is Integral too, and never a count.
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{label} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{label} must be >= {minimum}, got {value}")
        return int(value)

    return coerce


def _bool(value: Any, label: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ValueError(f"{label} must be True or False, got {value!r}")


def _opt_bool(value: Any, label: str) -> Optional[bool]:
    if value is None or isinstance(value, bool):
        return value
    raise ValueError(f"{label} must be True, False, or None, got {value!r}")


def _opt_str(value: Any, label: str) -> Optional[str]:
    return None if value is None else str(value)


def _opt_choice(choices: Sequence[str]) -> Callable[[Any, str], Optional[str]]:
    def coerce(value: Any, label: str) -> Optional[str]:
        if value is None:
            return None
        value = str(value)
        if value not in choices:
            listed = ", ".join(repr(c) for c in choices)
            raise ValueError(
                f"{label} must be {listed}, or None, got {value!r}"
            )
        return value

    return coerce


def _workers(value: Any, label: str) -> Optional[Tuple[str, ...]]:
    if value is None:
        return None
    if isinstance(value, str):
        value = [w for w in value.split(",") if w]
    return tuple("{}:{}".format(*parse_worker_address(w)) for w in value) or None


# -- the knob table ----------------------------------------------------------


class _Knob(NamedTuple):
    """One engine knob — the only place its name is declared."""

    name: str
    default: Any
    #: Typed validator/normalizer, see above.
    coerce: Callable[[Any, str], Any]
    #: ``(option string, help)`` per command-line flag; empty keeps the
    #: knob off the CLI.
    flags: Tuple[Tuple[str, str], ...] = ()
    #: What the flags parse: ``bool`` makes them a ``--x`` / ``--no-x``
    #: switch pair (so a flag can undo an ``--engine-options`` setting in
    #: both directions), ``int`` an integer argument, ``None`` a string.
    flag_type: Optional[type] = None
    #: argparse ``dest`` when the knob's own name is taken on a host CLI.
    dest: Optional[str] = None
    #: argparse ``choices``.
    choices: Optional[Sequence[str]] = None


_SHUFFLE_MODES = ("driver", "worker")

_KNOBS: Tuple[_Knob, ...] = (
    _Knob("executor", "sequential", _executor, flags=(
        ("--executor",
         "dataflow engine backend: sequential, persistent thread pool, "
         "persistent worker-process pool, or a remote TCP worker cluster"),
    ), choices=executor_names()),
    _Knob("num_shards", 8, _int_at_least(1), flag_type=int, flags=(
        ("--num-shards", "dataflow logical worker count"),
    )),
    _Knob("spill_to_disk", False, _bool, flag_type=bool, flags=(
        ("--spill-to-disk",
         "keep dataflow shards on disk (larger-than-memory mode)"),
        ("--no-spill-to-disk",
         "keep shards in memory (overrides a spill_to_disk set via "
         "--engine-options)"),
    )),
    _Knob("optimize", None, _opt_bool, flag_type=bool, flags=(
        ("--no-optimize",
         "disable the dataflow plan optimizer (combiner lifting, "
         "redundant-shuffle elision, post-shuffle fusion) and run the "
         "naive plan"),
        ("--optimize",
         "run the plan optimizer (overrides an optimize=false set via "
         "--engine-options)"),
    )),
    _Knob("stream_source", None, _opt_bool, flag_type=bool, flags=(
        ("--stream-source",
         "ingest the beams' point-id sources through chunked streaming "
         "(the driver never materializes the ground set as records); by "
         "default each beam keeps its own ingest mode"),
        ("--no-stream-source",
         "force eager ingest of the beams' point-id sources"),
    )),
    _Knob("workers", None, _workers, flags=(
        ("--workers",
         "comma-separated host:port list of remote worker daemons "
         "(python -m repro.dataflow.remote.worker); with --executor "
         "remote and no list, two localhost workers are auto-spawned"),
    )),
    _Knob("checkpoint_dir", None, _opt_str, flags=(
        ("--checkpoint-dir",
         "persist dataflow stage outputs here (plan-digest keyed); "
         "rerunning an identical, killed job resumes from the last "
         "completed stage"),
    )),
    # Not a flag: beams derive their own per-stage salt.
    _Knob("checkpoint_salt", None, _opt_str),
    _Knob("broadcast_min_bytes", DEFAULT_BROADCAST_MIN_BYTES,
          _int_at_least(0), flag_type=int, flags=(
        ("--broadcast-min-bytes",
         "closure-capture size threshold for one-time broadcast on the "
         "remote backend"),
    )),
    _Knob("stream_chunk_size", 4096, _int_at_least(1), flag_type=int, flags=(
        ("--stream-chunk-size", "records per chunk for streaming sources"),
    )),
    # Named --adaptive-plan, with a matching distinct dest, because the
    # selector CLI already owns --adaptive (and the args.adaptive slot)
    # for the greedy algorithm's adaptive partitioning — a shared dest
    # would let either flag silently flip the other's feature.
    _Knob("adaptive", None, _opt_bool, flag_type=bool, dest="adaptive_plan",
          flags=(
        ("--adaptive-plan",
         "record per-stage profiles and calibrate the cost model from "
         "them (persisted next to --checkpoint-dir); reports carry "
         "predicted vs actual stage times, and no engine knob changes"),
        ("--no-adaptive-plan",
         "disable adaptive planning (overrides an adaptive=true set via "
         "--engine-options)"),
    )),
    _Knob("shuffle", None, _opt_choice(_SHUFFLE_MODES), flags=(
        ("--shuffle",
         "shuffle data plane: merge buckets on the driver (the default) "
         "or exchange them worker-to-worker on the remote backend (the "
         "driver only plans the assignment, and an exchange a lost "
         "producer breaks reruns through the driver merge); results "
         "are bit-identical either way"),
    ), choices=_SHUFFLE_MODES),
)

_KNOB_BY_NAME: Dict[str, _Knob] = {knob.name: knob for knob in _KNOBS}


class EngineOptions:
    """Every dataflow-engine knob, validated once, frozen forever.

    Parameters
    ----------
    executor:
        Backend name from the executor registry (``"sequential"``,
        ``"thread"``, ``"remote"``) or an already-built :class:`~repro.dataflow.executor.Executor`
        instance.  Instances are shared, never closed by the context that
        receives them.
    num_shards:
        Logical worker count per pipeline (>= 1).
    spill_to_disk:
        Keep materialized shards on disk (the larger-than-memory mode).
    optimize:
        Run the plan optimizer.  ``None`` defers to the engine-wide
        default (the test harness's ``--no-optimize`` flips it).
    stream_source:
        Force chunked streaming ingest of the beams' point-id sources
        (``True``), force eager ingest (``False``), or keep each beam's
        own default (``None``).  Sources built from arrays (the graph
        and utility columns) are always eager.
    workers:
        Remote-worker addresses (``"host:port"`` strings or ``(host,
        port)`` pairs, normalized to strings).  Requires
        ``executor="remote"``; validated here, not at connect time.
    checkpoint_dir:
        Persist every materialization boundary here, keyed by plan
        digests; a killed run resumes from its last completed stage.
    checkpoint_salt:
        Content fingerprint standing in for streaming sources in the plan
        digest.  Requires ``checkpoint_dir``.  Beams usually derive their
        own per-stage salt via :meth:`derive`.
    broadcast_min_bytes:
        Captured-object size threshold for one-time closure broadcast on
        the payload-shipping remote backend; ignored by the in-process
        backends.
    stream_chunk_size:
        Records per chunk for streaming sources (bounds driver memory
        during ingest).
    adaptive:
        Attach a :class:`~repro.dataflow.planner.AdaptivePlanner` that
        records every stage's profile, calibrates the cost model from
        that history (persisted next to ``checkpoint_dir``), and feeds
        ``report.extra["plan_costs"]`` and ``explain()``'s cost notes.
        It changes no knob and no rewrite, so results and plans are the
        same either way.  ``None`` reads as off.
    shuffle:
        Shuffle data plane: ``"driver"`` merges buckets on the driver
        (the historical star topology), ``"worker"`` exchanges buckets
        worker-to-worker on the remote backend (the driver plans the
        bucket→worker assignment; bucket bytes move peer-to-peer, and an
        exchange that declines reruns through the driver merge).  Backends
        without a peer exchange — every in-process executor — always use
        the driver merge, whatever this says.  ``None`` defers to the
        engine-wide default (the test harness's ``--worker-shuffle``
        flips it).  Results are bit-identical in both modes.
    """

    #: Knob names in declaration order.
    _FIELDS = tuple(_KNOB_BY_NAME)

    __slots__ = _FIELDS + ("_frozen",)

    def __init__(
        self, executor: Any = _KNOB_BY_NAME["executor"].default, **knobs: Any
    ) -> None:
        knobs["executor"] = executor
        for name in knobs.keys() - _KNOB_BY_NAME.keys():
            raise TypeError(
                f"EngineOptions() got an unexpected keyword argument {name!r}"
            )
        for knob in _KNOBS:
            value = knobs.get(knob.name, knob.default)
            object.__setattr__(
                self, knob.name, knob.coerce(value, knob.name)
            )
        self._check_cross_field()
        object.__setattr__(self, "_frozen", True)

    def _check_cross_field(self) -> None:
        """The rules that span knobs (per-knob checks are coercers)."""
        if isinstance(self.executor, Executor):
            # An already-built instance carries its own workers and
            # broadcast threshold; accepting these knobs alongside it
            # would silently drop them (mirrors resolve_executor's
            # opts-with-an-instance error).
            if self.workers is not None:
                raise ValueError(
                    "workers requires an executor *name* (e.g. 'remote'); "
                    f"the passed {type(self.executor).__name__} "
                    "instance was already built with its own workers"
                )
            if self.broadcast_min_bytes != DEFAULT_BROADCAST_MIN_BYTES:
                raise ValueError(
                    "broadcast_min_bytes requires an executor *name*; "
                    f"the passed {type(self.executor).__name__} "
                    "instance was already built with its own threshold"
                )
        elif self.workers is not None and self.executor != "remote":
            raise ValueError(
                f"workers requires executor='remote', got "
                f"executor={self.executor!r}"
            )
        if self.checkpoint_salt is not None and self.checkpoint_dir is None:
            raise ValueError(
                "checkpoint_salt requires checkpoint_dir (a salt keys "
                "streaming sources inside a checkpoint directory)"
            )

    # -- immutability ------------------------------------------------------

    def __setattr__(self, name: str, value: Any) -> None:
        if getattr(self, "_frozen", False):
            raise AttributeError(
                f"EngineOptions is immutable; use derive({name}=...) to "
                "build a modified copy"
            )
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("EngineOptions is immutable")

    # Immutable: copies are the object itself (lets dataclasses.asdict and
    # deepcopy traverse containers holding options without mutation traps).
    def __copy__(self) -> "EngineOptions":
        return self

    def __deepcopy__(self, memo: dict) -> "EngineOptions":
        return self

    def __reduce__(self):
        return (type(self).from_dict, (self._state(),))

    def _state(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self._FIELDS}

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, EngineOptions):
            return NotImplemented
        return self._state() == other._state()

    def __hash__(self) -> int:
        state = self._state()
        executor = state["executor"]
        if isinstance(executor, Executor):
            state["executor"] = id(executor)
        return hash(tuple(sorted(state.items(), key=lambda kv: kv[0])))

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{knob.name}={getattr(self, knob.name)!r}"
            for knob in _KNOBS
            if getattr(self, knob.name) != knob.default
        )
        return f"EngineOptions({shown})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "EngineOptions":
        """Build options from a plain mapping; unknown keys are an error."""
        cls._check_known(mapping, "mapping")
        return cls(**mapping)

    @classmethod
    def _check_known(cls, mapping: Mapping[str, Any], what: str) -> None:
        unknown = sorted(set(mapping) - _KNOB_BY_NAME.keys())
        if unknown:
            raise ValueError(
                f"unknown engine option(s) {unknown} in {what}; expected a "
                f"subset of {list(cls._FIELDS)}"
            )

    @classmethod
    def from_namespace(cls, args: Any) -> "EngineOptions":
        """Build options from an argparse namespace populated by
        :func:`add_engine_arguments`.

        Precedence: ``defaults < --engine-options JSON file < explicit
        flags``.  Flags the user did not pass are ``None`` in the
        namespace and leave the lower layers untouched.  All layers are
        merged *before* the single validating construction, so
        cross-field constraints (e.g. ``checkpoint_salt`` from the file
        with ``--checkpoint-dir`` on the command line) hold for the
        combination, not per layer.
        """
        overrides: Dict[str, Any] = {}
        blob_path = getattr(args, "engine_options", None)
        if blob_path:
            with open(blob_path) as fh:
                blob = json.load(fh)
            if not isinstance(blob, dict):
                raise ValueError(
                    f"{blob_path}: engine options JSON must be an object"
                )
            cls._check_known(blob, blob_path)
            overrides.update(blob)
        for knob in _KNOBS:
            flag = getattr(args, knob.dest or knob.name, None)
            if flag is not None:
                overrides[knob.name] = flag
        return cls(**overrides)

    # -- derivation & serialization ----------------------------------------

    def derive(self, **overrides: Any) -> "EngineOptions":
        """A new ``EngineOptions`` with ``overrides`` applied and the full
        validation re-run — the per-stage tweak primitive."""
        self._check_known(overrides, "derive()")
        return type(self)(**{**self._state(), **overrides})

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able dict (round-trips through :meth:`from_dict` when the
        executor is a name; instances serialize as their backend name)."""

        def jsonable(value: Any) -> Any:
            if isinstance(value, Executor):
                return value.name
            return list(value) if isinstance(value, tuple) else value

        return {name: jsonable(v) for name, v in self._state().items()}

    # -- resolution helpers ------------------------------------------------

    def resolve_stream(self, default: bool) -> bool:
        """The effective streaming-ingest choice for a beam whose own
        default is ``default`` (``stream_source=None`` defers to it)."""
        return default if self.stream_source is None else self.stream_source

    def executor_factory_options(self) -> Dict[str, Any]:
        """Backend factory kwargs implied by these options (the remote
        backend's worker list and broadcast threshold; "multiprocess" is
        the registry's alias of "remote")."""
        if isinstance(self.executor, Executor):
            return {}
        opts: Dict[str, Any] = {}
        if self.executor == "remote" and self.workers:
            opts["workers"] = list(self.workers)
        if (
            self.executor in ("multiprocess", "remote")
            and self.broadcast_min_bytes != DEFAULT_BROADCAST_MIN_BYTES
        ):
            opts["broadcast_min_bytes"] = self.broadcast_min_bytes
        return opts


# ``EngineOptions(executor, *, <one keyword per knob>)`` for help() and
# IDEs, spelled from the table like everything else.
EngineOptions.__signature__ = inspect.Signature([
    inspect.Parameter(
        knob.name,
        inspect.Parameter.KEYWORD_ONLY if i
        else inspect.Parameter.POSITIONAL_OR_KEYWORD,
        default=knob.default,
    )
    for i, knob in enumerate(_KNOBS)
])


def add_engine_arguments(parser: Any) -> Any:
    """Attach the shared engine flag block to an argparse parser.

    The flags are the knob table's; all defaults are ``None`` ("not
    passed"), so :meth:`EngineOptions.from_namespace` can layer explicit
    flags over an optional ``--engine-options`` JSON file.  Returns the
    created argument group.
    """
    group = parser.add_argument_group(
        "engine options",
        "dataflow-engine configuration (defaults < --engine-options JSON "
        "< explicit flags)",
    )
    group.add_argument(
        "--engine-options", default=None, metavar="FILE",
        help="JSON file of EngineOptions fields (e.g. "
             '{"executor": "thread", "num_shards": 16})',
    )
    for knob in _KNOBS:
        common = {"dest": knob.dest or knob.name, "default": None}
        for option, help_text in knob.flags:
            if knob.flag_type is bool:
                negated = option.startswith("--no-")
                group.add_argument(
                    option, help=help_text, **common,
                    action="store_false" if negated else "store_true",
                )
            else:
                group.add_argument(
                    option, help=help_text, **common, choices=knob.choices,
                    type=knob.flag_type,
                )
    return group
