"""Domain types and pure text/score operations for checkpoint-guided search.

Everything in this module is backend-free and deterministic: answer
normalization, score reduction, lossless step splitting, construction of
checkpoint-completed candidates, and the JSON form of the records a search
writes.
"""
from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter, itemgetter

# Canonical form of an answer that is empty after normalization.  Empty
# answers compare equal to each other and never to a non-empty answer.
EMPTY_ANSWER = ""

DEFAULT_INJECTION_TEMPLATE = "So, the answer is "
DEFAULT_DELIMITERS: tuple[str, ...] = ("### Step",)

REDUCTIONS = ("last", "mean", "min", "sum", "prod")
STRATEGIES = ("greedy", "independent", "beam", "dvts", "srca")
SELECTORS = ("bon", "weighted_bon", "majority")

PATH_ACTIVE = "active"
PATH_FINISHED = "finished_natural"

ORIGIN_NATURAL = "natural"
ORIGIN_CHECKPOINT = "checkpoint"

_TERMINAL_PUNCT = ".,;:!?"
# Integer with thousands separators, optional decimal tail: "1,234" / "1,234.5"
_GROUPED_NUMBER = re.compile(r"[+-]?[0-9]{1,3}(?:,[0-9]{3})+(?:\.[0-9]+)?")
_SLASH_SPACING = re.compile(r"\s*/\s*")
# One ASCII decimal: sign, digits with an optional decimal part (either side of
# the point may be empty, not both), and an exponent of at most four digits.
# Spelled out rather than left to Fraction(str), whose grammar varies across
# interpreters (digit-group underscores from 3.11, Unicode digits throughout).
_DECIMAL = r"([+-]?)([0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE]([+-]?[0-9]{1,4}))?"
# A numeral: one decimal, or two joined by a single slash.
_NUMERAL = re.compile(rf"{_DECIMAL}(?:/{_DECIMAL})?")
# Digit bound for a numeral's significant digits and for its reduced numerator
# and denominator; a numeral over it stays text.  Below 640, the smallest limit
# sys.set_int_max_str_digits accepts, so no int/str conversion here depends on
# that setting.
_MAX_DIGITS = 600
_DIGIT_CEILING = 10**_MAX_DIGITS


class ConfigError(ValueError):
    """Invalid configuration value; carries the offending field name."""

    def __init__(self, fld: str, message: str):
        super().__init__(f"{fld}: {message}")
        self.field = fld


def _unwrap_boxed(text: str) -> str | None:
    """Return the content of the last \\boxed{...} marker, or None.

    Uses brace balancing so nested braces inside the box survive.
    """
    idx = text.rfind("\\boxed")
    if idx < 0:
        return None
    brace = text.find("{", idx)
    if brace < 0:
        return None
    depth = 0
    for pos in range(brace, len(text)):
        if text[pos] == "{":
            depth += 1
        elif text[pos] == "}":
            depth -= 1
            if depth == 0:
                return text[brace + 1 : pos]
    return None


def _decimal_parts(sign: str, digits: str, exp: str | None) -> tuple[int, str, int]:
    """Split one matched decimal into (sign, significand, exponent).

    The significand has no leading or trailing zeros (it is empty for zero),
    and sign * int(significand) * 10**exponent is the decimal's exact value.
    """
    whole, _, frac = digits.partition(".")
    significand = (whole + frac).lstrip("0")
    trimmed = significand.rstrip("0")
    exponent = int(exp or 0) - len(frac) + len(significand) - len(trimmed)
    return (-1 if sign == "-" else 1), trimmed, exponent


def _parse_rational(text: str) -> Fraction | None:
    compact = _SLASH_SPACING.sub("/", text)
    if _GROUPED_NUMBER.fullmatch(compact):
        compact = compact.replace(",", "")
    match = _NUMERAL.fullmatch(compact)
    if match is None:
        return None
    num_sign, num_digits, num_exp = _decimal_parts(*match.group(1, 2, 3))
    if match.group(5) is None:
        den_sign, den_digits, den_exp = 1, "1", 0
    else:
        den_sign, den_digits, den_exp = _decimal_parts(*match.group(4, 5, 6))
    if not den_digits:
        return None
    if not num_digits:
        return Fraction(0)
    if max(len(num_digits), len(den_digits)) > _MAX_DIGITS:
        return None
    # With both significands below 10**_MAX_DIGITS, a larger exponent already
    # puts more than _MAX_DIGITS digits into the reduced numerator or
    # denominator; checking first keeps the exact arithmetic small.
    exponent = num_exp - den_exp
    if abs(exponent) > 2 * _MAX_DIGITS:
        return None
    value = Fraction(num_sign * den_sign * int(num_digits), int(den_digits))
    value *= Fraction(10) ** exponent
    if abs(value.numerator) >= _DIGIT_CEILING or value.denominator >= _DIGIT_CEILING:
        return None
    return value


def _format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@lru_cache(maxsize=1024)
def normalize_answer(raw: str) -> str:
    """Collapse an answer string to a canonical comparable form.

    Strips surrounding whitespace and terminal punctuation, unwraps a
    \\boxed{} marker, and parses rational literals so that arithmetically
    equal forms collapse ("6", "6.0", " 6 " all become "6"; "1/2" and "0.5"
    agree).  Numerals are ASCII only: digits 0-9, an optional sign, decimal
    point and exponent of at most four digits, commas only as thousands
    separators, and at most one slash.  Underscores are not digit separators
    and non-ASCII digits are not digits, so "1_000" and "١٢" stay text.  A
    numeral with more than 600 significant digits, or whose reduced numerator
    or denominator would have more than 600 digits, also stays text.
    Non-numeric answers are lowercased with whitespace collapsed.  The
    result does not depend on the interpreter version or on
    sys.get_int_max_str_digits(), and the function is idempotent.  Results
    are cached per distinct string: a search meets few distinct answers.
    """
    text = raw.strip()
    boxed = _unwrap_boxed(text)
    if boxed is not None:
        text = boxed.strip()
    while text and text[-1] in _TERMINAL_PUNCT:
        text = text[:-1].rstrip()
    if not text:
        return EMPTY_ANSWER
    value = _parse_rational(text)
    if value is not None:
        return _format_rational(value)
    return " ".join(text.lower().split())


def answers_equal(a: str, b: str) -> bool:
    """True when both answers share a canonical form."""
    return normalize_answer(a) == normalize_answer(b)


def extract_final_answer(text: str, template: str = DEFAULT_INJECTION_TEMPLATE) -> str:
    """Pull the raw answer out of a completed path text.

    Looks for the last occurrence of the answer template and returns what
    follows it (cut at the first newline).  Falls back to a \\boxed{} marker
    and finally to the last non-empty line.
    """
    idx = text.rfind(template)
    if idx >= 0:
        tail = text[idx + len(template) :]
        return tail.split("\n", 1)[0]
    boxed = _unwrap_boxed(text)
    if boxed is not None:
        return boxed
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def reduce_scores(scores: list[float], mode: str) -> float:
    """Reduce a per-step score sequence to one path score."""
    if not scores:
        raise ValueError("cannot reduce an empty score sequence (unscored path)")
    if mode == "last":
        return scores[-1]
    if mode == "mean":
        # Rounding in sum() / len() can land just outside the inputs' range
        # (three copies of 0.7638756340333985 average to ...984).
        return min(max(sum(scores) / len(scores), min(scores)), max(scores))
    if mode == "min":
        return min(scores)
    if mode == "sum":
        return sum(scores)
    if mode == "prod":
        return math.prod(scores)
    raise ValueError(f"unknown reduction mode: {mode!r}")


def approx_token_count(text: str) -> int:
    """Whitespace word count used as a cheap token proxy for accounting."""
    return len(text.split())


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    gold_answer: str


@dataclass(frozen=True)
class Step:
    """One reasoning step; text retains its leading delimiter."""

    index: int
    text: str


step_text = attrgetter("text")
_second = itemgetter(1)


def delimiter_pattern(delimiters: tuple[str, ...] | list[str]) -> re.Pattern:
    """The pattern split_into_steps cuts at: any delimiter, earlier ones
    tried first at each position."""
    return re.compile("|".join(re.escape(d) for d in delimiters))


def split_into_steps(text: str, delimiters: tuple[str, ...] | list[str]) -> list[Step]:
    """Split path text into steps at every delimiter occurrence.

    Lossless: concatenating the returned step texts reproduces the input
    exactly.  Text before the first delimiter becomes step 0 when non-empty;
    text without any delimiter is a single step.  Empty input yields no steps.
    """
    if not delimiters:
        raise ValueError("delimiters must be non-empty")
    if not text:
        return []
    pattern = delimiter_pattern(delimiters)
    boundaries = [m.start() for m in pattern.finditer(text)]
    if not boundaries:
        return [Step(0, text)]
    segments: list[str] = []
    if boundaries[0] > 0:
        segments.append(text[: boundaries[0]])
    for i, start in enumerate(boundaries):
        end = boundaries[i + 1] if i + 1 < len(boundaries) else len(text)
        segments.append(text[start:end])
    return [Step(i, seg) for i, seg in enumerate(segments)]


@dataclass(frozen=True)
class CheckpointAnswer:
    """Answer forced out of a path mid-reasoning via the injection template."""

    step_index: int
    raw_text: str
    normalized: str

    @classmethod
    def from_raw(cls, step_index: int, raw_text: str) -> "CheckpointAnswer":
        return cls(step_index, raw_text, normalize_answer(raw_text))


@dataclass
class ReasoningPath:
    """A (partial) reasoning trajectory for one question."""

    question_id: str
    steps: list[Step] = field(default_factory=list)
    score_sequence: list[float] = field(default_factory=list)
    status: str = PATH_ACTIVE
    lineage: list[tuple[int, int]] = field(default_factory=list)
    checkpoint_answers: dict[int, CheckpointAnswer] = field(default_factory=dict)
    # step_tokens() kept by the search engine as it builds the path from its
    # parent; None on a path built anywhere else.
    _step_tokens: int | None = field(default=None, init=False, repr=False, compare=False)
    # Whether the delimiters match in text() exactly at the step offsets, for
    # this path and for the parent it was built from; set by the search
    # engine when it needs them, None until then.  Class attributes, not
    # fields, so building a path does not pay for them.
    _aligned = None
    _parent_aligned = None

    def text(self) -> str:
        return "".join(map(step_text, self.steps))

    def step_tokens(self) -> int:
        """approx_token_count summed over the step texts."""
        if self._step_tokens is None:
            return sum(approx_token_count(s.text) for s in self.steps)
        return self._step_tokens

    def lineage_key(self) -> tuple[int, ...]:
        return tuple(map(_second, self.lineage))

    def reduced_score(self, mode: str) -> float:
        return reduce_scores(self.score_sequence, mode)

    def finish(self) -> None:
        if self.status != PATH_ACTIVE:
            raise ValueError(f"cannot finish a path in status {self.status!r}")
        self.status = PATH_FINISHED

    def record_checkpoint(self, answer: CheckpointAnswer) -> None:
        if answer.step_index in self.checkpoint_answers:
            raise ValueError(
                f"checkpoint answer already recorded for step {answer.step_index}"
            )
        self.checkpoint_answers[answer.step_index] = answer


class _Record:
    """Base of a dataclass whose JSON form is its fields, by name: tuples and
    lists are written as lists, nested records in their own JSON form, and
    fields declared with repr=False are left out."""

    # The JSON field names in declaration order, set once per class by
    # @_record.  They lead the __init__ parameters, so from_json_dict passes
    # their values positionally, which costs less than unpacking a dict.
    _json_fields: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        data = {}
        for name in self._json_fields:
            value = getattr(self, name)
            encode = _JSON_ENCODERS.get(type(value))
            data[name] = value if encode is None else encode(value)
        return data

    @classmethod
    def from_json_dict(cls, data: dict):
        return cls(*cls._json_values(data))

    @classmethod
    def _json_values(cls, data: dict) -> tuple:
        """data's values in field order; ValueError unless it is a dict whose
        keys are exactly the JSON fields."""
        if not isinstance(data, dict):
            raise ValueError(f"{cls.__name__} record is not a JSON object: {data!r}")
        try:
            values = cls._json_getter(data)
            if len(values) == len(data):
                return values
        except KeyError:
            pass
        raise ValueError(f"{cls.__name__} keys {sorted(data)} are not {list(cls._json_fields)}")


def _record(cls):
    cls._json_fields = tuple(f.name for f in fields(cls) if f.repr)
    cls._json_getter = itemgetter(*cls._json_fields)
    _JSON_ENCODERS[cls] = cls.to_json_dict
    return cls


def _json_list(items) -> list:
    return [item.to_json_dict() if isinstance(item, _Record) else item for item in items]


# The JSON form of a value by its exact type; any other value is its own.
# No tuple field holds a record, so a tuple is copied as it is.
_JSON_ENCODERS = {list: _json_list, tuple: list}

# Compact, sorted JSON text of one value.  Without indent, encode runs in
# CPython's C encoder; json.dump never does.
_encode_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _compact_chunks(data: dict):
    """The text of json.dumps(data, sort_keys=True, separators=(",", ":")) in
    pieces: one per top-level value, or per element of a top-level list."""
    yield "{"
    for i, key in enumerate(sorted(data)):
        yield ("," if i else "") + _encode_compact(key) + ":"
        value = data[key]
        if type(value) is list:
            yield "["
            for j, item in enumerate(value):
                yield ("," if j else "") + _encode_compact(item)
            yield "]"
        else:
            yield _encode_compact(value)
    yield "}"


def write_json_atomic(path: str, data: dict) -> None:
    """Write data, a dict with string keys, to path as compact JSON with
    sorted keys, never holding more than one top-level value or list element
    as text.  The file is written beside path and renamed over it, so a
    reader sees the old file or the whole new one."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(_compact_chunks(data))
    os.replace(tmp, path)


@_record
@dataclass
class Candidate(_Record):
    """A pool entry: a complete answer-bearing path, natural or checkpoint-built."""

    full_text: str
    answer: str
    origin: str  # ORIGIN_NATURAL or ORIGIN_CHECKPOINT
    origin_step: int | None = None
    final_score: float | None = None
    lineage: tuple[int, ...] = ()
    round_index: int | None = None
    question_id: str = ""
    source: ReasoningPath | None = field(default=None, repr=False, compare=False)

    @property
    def from_checkpoint(self) -> bool:
        return self.origin == ORIGIN_CHECKPOINT

    def order_key(self) -> tuple:
        """Deterministic tie-break key: natural first, then lineage order."""
        return (
            0 if self.origin == ORIGIN_NATURAL else 1,
            self.lineage,
            self.origin_step if self.origin_step is not None else -1,
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "Candidate":
        candidate = cls(*cls._json_values(data))
        candidate.lineage = tuple(candidate.lineage)
        return candidate


def build_checkpoint_candidate(
    path: ReasoningPath, template: str, answer: CheckpointAnswer
) -> Candidate:
    """Complete a path through its checkpoint answer at answer.step_index.

    The candidate text is the path prefix through that step, the injection
    template, and the raw answer, concatenated.  The score is left unset;
    callers score the candidate like any other path.
    """
    if not path.steps:
        raise ValueError("cannot build a checkpoint candidate from an empty path")
    if answer.step_index < 0 or answer.step_index >= len(path.steps):
        raise ValueError(
            f"checkpoint step {answer.step_index} out of range for a path "
            f"with {len(path.steps)} steps"
        )
    prefix = "".join(map(step_text, path.steps[: answer.step_index + 1]))
    return Candidate(
        full_text=prefix + template + answer.raw_text,
        answer=answer.normalized,
        origin=ORIGIN_CHECKPOINT,
        origin_step=answer.step_index,
        lineage=path.lineage_key()[: answer.step_index + 1],
        question_id=path.question_id,
        source=path,
    )


@dataclass(frozen=True)
class Cluster:
    """Candidates sharing one normalized answer; aggregate is the exact score sum."""

    answer_key: str
    members: tuple[int, ...]
    aggregate: float


@_record
@dataclass(frozen=True)
class SearchConfig(_Record):
    """Knobs for one search run.  n is the sampling budget per round, m the
    number of surviving paths; every survivor expands into n // m children."""

    n: int = 4
    m: int = 2
    max_steps: int = 40
    temperature: float = 0.8
    top_p: float = 0.9
    tau: float = 1.0
    reduction: str = "last"
    delimiters: tuple[str, ...] = DEFAULT_DELIMITERS
    injection_template: str = DEFAULT_INJECTION_TEMPLATE
    strategy: str = "srca"
    cca_enabled: bool = True
    seed: int = 0
    selector: str = "bon"
    max_step_tokens: int = 512

    def __post_init__(self):
        for name, accepted, kind in _SEARCH_FIELD_TYPES:
            value = getattr(self, name)
            if type(value) not in accepted:
                raise ConfigError(name, f"must be {kind}, got {value!r}")
        if self.n < 1:
            raise ConfigError("n", "must be an integer >= 1")
        if self.m < 1:
            raise ConfigError("m", "must be an integer >= 1")
        if self.n < self.m:
            raise ConfigError("n", f"requires N >= M >= 1, got N={self.n} M={self.m}")
        if self.n % self.m != 0:
            raise ConfigError(
                "n", f"requires N mod M = 0, got N={self.n} M={self.m}"
            )
        if self.max_steps < 1:
            raise ConfigError("max_steps", "must be >= 1")
        if self.temperature < 0:
            raise ConfigError("temperature", "must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ConfigError("top_p", "must be in (0, 1]")
        if not 0 <= self.tau <= 1:
            raise ConfigError("tau", f"must be in [0, 1], got {self.tau}")
        if self.reduction not in REDUCTIONS:
            raise ConfigError(
                "reduction", f"must be one of {REDUCTIONS}, got {self.reduction!r}"
            )
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                "strategy", f"must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.selector not in SELECTORS:
            raise ConfigError(
                "selector", f"must be one of {SELECTORS}, got {self.selector!r}"
            )
        if not self.delimiters or any(type(d) is not str or not d for d in self.delimiters):
            raise ConfigError("delimiters", "must be a non-empty list of non-empty strings")
        if not isinstance(self.delimiters, tuple):
            object.__setattr__(self, "delimiters", tuple(self.delimiters))
        if not self.injection_template:
            raise ConfigError("injection_template", "must be non-empty")
        if self.max_step_tokens < 1:
            raise ConfigError("max_step_tokens", "must be >= 1")

    @property
    def branch_factor(self) -> int:
        return self.n // self.m

    @classmethod
    def from_json_dict(cls, data: dict) -> "SearchConfig":
        """A config from any of its JSON fields; the others keep their defaults."""
        unknown = set(data).difference(cls._json_fields)
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown search config key")
        return cls(**data)


# (name, accepted types, description) of each SearchConfig field, by the type
# of its default.  Types match exactly, so a bool is no number; an int passes
# for a float and stays an int, which keeps config_hash as it was.
_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
    tuple: ((tuple, list), "a list of strings"),
}
_SEARCH_FIELD_TYPES = tuple((f.name, *_JSON_TYPES[type(f.default)]) for f in fields(SearchConfig))


@_record
@dataclass
class RoundRecord(_Record):
    """Diagnostics for one expansion round."""

    step_index: int
    beams: int
    candidate_count: int
    cluster_count: int | None
    selected: list[int]
    pooled_natural: int
    pooled_checkpoint: int


@_record
@dataclass
class TokenStats(_Record):
    generated_tokens: int = 0
    generator_calls: int = 0
    reward_calls: int = 0
    reward_tokens: int = 0


# RunResult fields that label a run; its transcript leaves them out.
_RUN_LABELS = ("strategy", "selection_method", "config", "selected_trace")


@_record
@dataclass
class RunResult(_Record):
    """Everything one search run produced for one question."""

    question_id: str
    strategy: str
    pool: list[Candidate]
    selected_index: int
    selection_method: str
    rounds: list[RoundRecord]
    tokens: TokenStats
    config: dict
    stopped_early: bool = False
    selected_trace: list[dict] = field(default_factory=list)

    @property
    def selected(self) -> Candidate:
        return self.pool[self.selected_index]

    @property
    def depth(self) -> int:
        return len(self.rounds)

    def transcript_dict(self) -> dict:
        """The JSON form without its labels: two runs that made identical
        decisions over identical backend streams have equal transcripts even
        under different strategy names (used for degeneracy checks)."""
        data = self.to_json_dict()
        for label in _RUN_LABELS:
            del data[label]
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunResult":
        result = cls(*cls._json_values(data))
        result.pool = [Candidate.from_json_dict(c) for c in result.pool]
        result.rounds = [RoundRecord.from_json_dict(r) for r in result.rounds]
        result.tokens = TokenStats.from_json_dict(result.tokens)
        return result
