"""Training configuration and its `key = value` file format."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .data import parse_number, text_lines
from .rng import SEED_LIMIT

# The transformer allocates its (max_len, dim) positional table before any
# data is read, so a mistyped max_len must fail here, not as an out-of-memory
# kill; 10,000 rows are 10 MB at dim 128.
MAX_LEN_LIMIT = 10_000
# A schedule holds six float64 columns of t rows, and the cosine and sqrt
# families build theirs in a Python loop of t steps: 100,000 steps are
# 4.8 MB and a fraction of a second.
MAX_T_LIMIT = 100_000
# The parameter table holds 12 entries per transformer block, and the
# parameter ceiling and checkpoint loading build it before they can refuse
# a model; the paper uses 4 blocks.
MAX_BLOCKS_LIMIT = 100
# Training holds six float64 copies of the parameters: the values, their
# gradients, Adam's two moments and its two scratch buffers. At 50 M
# parameters that is 2.4 GB; the paper-default Beauty model has about 2.4 M.
MAX_PARAMS = 50_000_000
SCHEDULE_KINDS = ("truncated-linear", "linear", "cosine", "sqrt")


@dataclass
class TrainConfig:
    """Everything that, together with a dataset and a seed, fixes a training run.

    Defaults follow the reference setup (lr 0.001, horizon 32, dim 128,
    4 blocks / 4 heads, dropout 0.1 block / 0.3 embedding, delta 0.001);
    tests use a smaller desk profile.
    """

    learning_rate: float = 0.001
    epochs: int = 50
    batch_size: int = 1024
    t: int = 32
    delta: float = 0.001
    schedule_kind: str = "truncated-linear"
    schedule_a: float = 0.2
    schedule_b: float = 0.008
    schedule_tau: float = 1.0
    dropout_block: float = 0.1
    dropout_emb: float = 0.3
    max_len: int = 50
    seed: int = 0
    mode: str = "diffusion"  # or "adversarial"
    epsilon_adv: float = 0.5
    gamma_adv: float = 1.0
    dim: int = 128
    blocks: int = 4
    heads: int = 4
    approximator: str = "transformer"  # or "gru"
    lambda_scalar: bool = False
    eval_every: int = 5
    patience: int = 3

    def validate(self) -> "TrainConfig":
        for name, kind in _FIELDS.items():
            value = getattr(self, name)
            # a float dim would pass every range check; bool is a subclass of int
            if not isinstance(value, _TYPES[kind]) or isinstance(value, bool) != (kind == "bool"):
                raise ValueError(f"{name} must be of type {kind}, got {value!r}")
            if kind == "float":  # stored as a float: numpy's ufuncs refuse an int past 2**64
                try:
                    setattr(self, name, float(value))
                except OverflowError:
                    raise ValueError(f"{name} must be finite, got an integer past the "
                                     f"float range") from None
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 1 <= self.t <= MAX_T_LIMIT:
            raise ValueError(f"t must be in [1, {MAX_T_LIMIT}] (config.MAX_T_LIMIT), "
                             f"got {self.t}")
        check_schedule(self.schedule_kind, self.schedule_a, self.schedule_b, self.schedule_tau)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.epsilon_adv < 0:
            raise ValueError("epsilon_adv must be >= 0")
        if self.gamma_adv < 0:
            raise ValueError("gamma_adv must be >= 0")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.dim % 2 != 0:
            raise ValueError("dim must be even (sinusoidal step embedding)")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        if not 0 <= self.blocks <= MAX_BLOCKS_LIMIT:
            raise ValueError(f"blocks must be in [0, {MAX_BLOCKS_LIMIT}] "
                             f"(config.MAX_BLOCKS_LIMIT), got {self.blocks}")
        if self.mode not in ("diffusion", "adversarial"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.approximator not in ("transformer", "gru"):
            raise ValueError(f"unknown approximator {self.approximator!r}")
        if not 1 <= self.max_len <= MAX_LEN_LIMIT:
            raise ValueError(f"max_len must be in [1, {MAX_LEN_LIMIT}] (config.MAX_LEN_LIMIT), "
                             f"got {self.max_len}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0")
        for name in ("dropout_block", "dropout_emb"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        return self


def check_schedule(kind: str, a: float, b: float, tau: float) -> None:
    """Refuse an unknown schedule family, a non-finite option, or a, b or tau
    away from its `TrainConfig` default on a family other than
    truncated-linear, which alone reads them."""
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}; expected one of {SCHEDULE_KINDS}")
    for name, value in (("a", a), ("b", b), ("tau", tau)):
        if not math.isfinite(value):
            raise ValueError(f"schedule option {name}={value!r} must be finite")
        if kind != "truncated-linear" and value != getattr(TrainConfig, f"schedule_{name}"):
            raise ValueError(f"schedule option {name}={value!r} applies only to "
                             f"truncated-linear, not {kind}")


_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _parse_value(name: str, text: str):
    kind = _FIELDS[name]
    if kind == "bool":
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"cannot parse boolean {name} = {text!r}")
    if kind == "str":
        return text
    try:
        return parse_number(text, int if kind == "int" else float)
    except ValueError:
        raise ValueError(f"cannot parse {kind} {name} = {text!r}") from None


def parse_config(text: str) -> TrainConfig:
    """Parse `key = value` lines; `#` starts a comment, blanks are skipped."""
    values, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ValueError(f"config line {lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
        try:
            values[key] = _parse_value(key, raw.strip())
        except ValueError as err:
            raise ValueError(f"config line {lineno}: {err}") from None
    return TrainConfig(**values).validate()


def load_config(path) -> TrainConfig:
    return parse_config("".join(line for _, line in text_lines(path)))


def config_from_dict(d: dict) -> TrainConfig:
    unknown = set(d) - set(_FIELDS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return TrainConfig(**d).validate()
