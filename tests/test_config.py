import dataclasses
import re

import pytest

from seqdiff.config import (MAX_BLOCKS_LIMIT, MAX_LEN_LIMIT, MAX_T_LIMIT, TrainConfig,
                            parse_config)
from conftest import format_config


def test_round_trip_through_text():
    cfg = TrainConfig(learning_rate=0.003, epochs=7, mode="adversarial",
                      lambda_scalar=True, approximator="gru", heads=2,
                      dim=16)
    again = parse_config(format_config(cfg))
    assert again == cfg


def test_parse_accepts_comments_and_blanks():
    cfg = parse_config("""
# desk profile
dim = 32
blocks = 2   # two encoder blocks
heads = 2

t = 8
""")
    assert (cfg.dim, cfg.blocks, cfg.heads, cfg.t) == (32, 2, 2, 8)


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("weight_decay = 0.1")


def test_parse_rejects_missing_equals():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("dim 32")


def test_parse_rejects_a_key_given_twice_naming_both_lines():
    with pytest.raises(ValueError, match="line 3: epochs is already set on line 1"):
        parse_config("epochs = 1\ndim = 32\nepochs = 0\n")


def test_parse_rejects_bad_boolean():
    with pytest.raises(ValueError, match=re.escape(
            "config line 1: cannot parse boolean lambda_scalar = 'maybe'")):
        parse_config("lambda_scalar = maybe")


@pytest.mark.parametrize("text,message", [
    ("dim = 8.0", "config line 1: cannot parse int dim = '8.0'"),
    ("epochs = 2\nlearning_rate = fast",
     "config line 2: cannot parse float learning_rate = 'fast'"),
])
def test_parse_errors_name_the_line_and_the_field(text, message):
    with pytest.raises(ValueError) as err:
        parse_config(text)
    assert str(err.value) == message


@pytest.mark.parametrize("field,value", [
    ("learning_rate", 0.0),
    ("t", 0),
    ("batch_size", 0),
    ("epsilon_adv", -1.0),
    ("gamma_adv", -0.5),
    ("delta", -0.001),
    ("mode", "hybrid"),
    ("approximator", "cnn"),
    ("max_len", 0),
    ("heads", 0),
    ("heads", -2),
    ("dim", 0),
    ("blocks", -1),
    ("patience", 0),
    ("eval_every", -1),
    ("seed", -1),  # RngStream would alias it to 2**64 - 1
    ("seed", 2**64),
    ("dropout_block", 1.0),
    ("dropout_block", -0.1),
    ("dropout_emb", 1.5),
    ("dropout_emb", -0.3),
    # values of another type: a float dim passes every range check, and
    # would fail later as a shape
    ("dim", 8.0),
    ("t", 4.0),
    ("blocks", 1.0),
    ("heads", 2.0),
    ("max_len", 50.0),
    ("epochs", True),
    ("learning_rate", True),
    ("delta", "0.1"),
    ("lambda_scalar", 1),
    ("mode", 1),
])
def test_validate_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value}).validate()


_FLOAT_FIELDS = [f.name for f in dataclasses.fields(TrainConfig) if f.type == "float"]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", _FLOAT_FIELDS)
def test_validate_rejects_non_finite_floats(field, text):
    # nan passes every `<` and `>` check, and a nan or infinite learning rate
    # or delta would only show later as a diverged loss
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        parse_config(f"{field} = {text}")


def test_validate_accepts_an_int_for_a_float_field():
    assert TrainConfig(learning_rate=1, delta=0).validate().learning_rate == 1


def test_validate_stores_an_int_for_a_float_field_as_a_float():
    # numpy's ufuncs refuse a Python int past 2**64: a delta of 10**30 used to
    # pass here and then fail inside the reversal's square root
    cfg = TrainConfig(delta=10**30).validate()
    assert type(cfg.delta) is float and cfg.delta == 1e30


@pytest.mark.parametrize("field", _FLOAT_FIELDS)
def test_validate_refuses_an_int_past_the_float_range(field):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got an integer past "
                                         f"the float range$"):
        TrainConfig(**{field: 10**400}).validate()


def test_validate_requires_dim_divisible_by_heads():
    with pytest.raises(ValueError):
        TrainConfig(dim=30, heads=4).validate()


def test_validate_caps_max_len_and_names_the_ceiling():
    # the transformer's positional table has max_len rows, allocated at init
    assert TrainConfig(max_len=MAX_LEN_LIMIT).validate().max_len == MAX_LEN_LIMIT
    with pytest.raises(ValueError, match=re.escape(
            f"max_len must be in [1, {MAX_LEN_LIMIT}] (config.MAX_LEN_LIMIT), got 10001")):
        parse_config(f"max_len = {MAX_LEN_LIMIT + 1}")


def test_validate_caps_blocks_and_names_the_ceiling():
    # the parameter table holds 12 entries per block, built before the
    # parameter ceiling or a checkpoint's listing can refuse the model
    assert TrainConfig(blocks=MAX_BLOCKS_LIMIT).validate().blocks == MAX_BLOCKS_LIMIT
    with pytest.raises(ValueError, match=re.escape(
            f"blocks must be in [0, {MAX_BLOCKS_LIMIT}] (config.MAX_BLOCKS_LIMIT), "
            f"got {MAX_BLOCKS_LIMIT + 1}")):
        parse_config(f"blocks = {MAX_BLOCKS_LIMIT + 1}")


@pytest.mark.parametrize("lines,message", [
    ("schedule_kind = cosin", "unknown schedule kind 'cosin'"),
    ("schedule_kind = cosine\nschedule_tau = 0.5",
     "schedule option tau=0.5 applies only to truncated-linear, not cosine")])
def test_a_schedule_that_cannot_be_built_is_refused_in_every_mode(lines, message):
    # the adversarial mode builds no schedule, so only the config check sees these
    for mode in ("adversarial", "diffusion"):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(f"mode = {mode}\n{lines}\n")


def test_validate_caps_t_and_names_the_ceiling():
    # every reversal and every schedule holds t rows, built at setup
    assert TrainConfig(t=MAX_T_LIMIT).validate().t == MAX_T_LIMIT
    with pytest.raises(ValueError, match=re.escape(
            f"t must be in [1, {MAX_T_LIMIT}] (config.MAX_T_LIMIT), got {10**9}")):
        parse_config(f"t = {10**9}")
