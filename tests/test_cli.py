import dataclasses
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

from seqdiff.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from seqdiff.cli import main
from seqdiff.config import TrainConfig
from seqdiff.data import SequenceDataset, load_processed, save_processed, split, synth
from seqdiff.evaluate import head_items
from seqdiff.infer import build_scorer
from seqdiff.metrics import report_csv_rows, report_from_ranks
from seqdiff.model import param_shapes
from seqdiff.rng import RngStream
from seqdiff.schedule import build_schedule, dump_schedule_csv
from seqdiff.train import run_training
from conftest import (desk_config, format_config, reference_ranks, replace_metadata,
                      with_metadata)


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--kind", "cyclic", "--users", "60", "--items", "15",
                 "--len", "8", "--seed", "7", "--out", str(out)]) == 0
    return out


@pytest.fixture
def trained_ckpt(tmp_path, synth_dir):
    cfg = desk_config(dim=16, blocks=1, heads=2, t=4, batch_size=32, epochs=2,
                      max_len=8, eval_every=0, seed=1)
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(format_config(cfg))
    ckpt_path = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(synth_dir), "--config", str(cfg_path),
                 "--out", str(ckpt_path), "--seed", "1"]) == 0
    return ckpt_path


def test_preprocess_command(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    lines = []
    for u in range(6):
        for j in range(6):
            lines.append(f"user{u}\titem{j}\t{u * 10 + j}")
    raw.write_text("\n".join(lines) + "\n")
    out = tmp_path / "processed"
    assert main(["preprocess", "--in", str(raw), "--out", str(out),
                 "--min-count", "5", "--max-len", "4"]) == 0
    assert (out / "sequences.txt").exists()
    assert (out / "vocab.tsv").exists()
    captured = capsys.readouterr().out
    # only items surviving the length-4 truncation get vocabulary indices
    assert "6 sequences, 4 items, 36 actions" in captured


@pytest.mark.parametrize("size", [["--items", "10000000000", "--users", "2"],
                                  ["--items", "50", "--users", "1000000000"]])
def test_synth_over_a_size_ceiling_is_one_line_and_exit_2(tmp_path, size, capsys):
    out = tmp_path / "data"
    assert main(["synth", "--kind", "markov", *size, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("seqdiff synth: n_")
    assert "(data.MAX_SYNTH_" in captured.err


def test_synth_writes_loadable_dataset(synth_dir):
    text = (synth_dir / "sequences.txt").read_text().strip().splitlines()
    assert len(text) == 60
    first = [int(x) for x in text[0].split()]
    for a, b in zip(first, first[1:]):
        assert b == (a % 15) + 1


def test_schedule_dump_command(tmp_path):
    out = tmp_path / "schedule.csv"
    assert main(["schedule-dump", "--kind", "truncated-linear", "--t", "32",
                 "--a", "0.2", "--b", "0.008", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,beta,alpha,alpha_bar,coef_x0,coef_xs,beta_tilde"
    assert len(lines) == 33


def test_schedule_dump_defaults_are_the_configs(tmp_path):
    cfg = TrainConfig()
    assert main(["schedule-dump", "--out", str(tmp_path / "dumped.csv")]) == 0
    dump_schedule_csv(build_schedule(cfg.schedule_kind, cfg.t, cfg.schedule_a, cfg.schedule_b,
                                     cfg.schedule_tau), tmp_path / "config.csv")
    assert (tmp_path / "dumped.csv").read_bytes() == (tmp_path / "config.csv").read_bytes()


def test_train_and_infer_round_trip(trained_ckpt, capsys):
    ckpt = load_checkpoint(trained_ckpt)
    assert ckpt.vocab_size == 15
    capsys.readouterr()
    assert main(["infer", "--ckpt", str(trained_ckpt), "--sequence", "1,2,3",
                 "--steps", "4", "--seed", "5", "--topk", "3"]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines[0] == "rank\titem\tscore"
    assert len(out_lines) == 4
    # reruns with the same seed print the same ranking
    main(["infer", "--ckpt", str(trained_ckpt), "--sequence", "1,2,3",
          "--steps", "4", "--seed", "5", "--topk", "3"])
    assert capsys.readouterr().out.strip().splitlines() == out_lines


def test_eval_command_with_breakdowns(tmp_path, synth_dir, trained_ckpt, capsys):
    report = tmp_path / "report.csv"
    assert main(["eval", "--ckpt", str(trained_ckpt), "--data", str(synth_dir),
                 "--split", "test", "--steps", "4", "--seed", "3",
                 "--head-tail", "--length-buckets", "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "HR@10" in out
    rows = report.read_text().strip().splitlines()
    assert rows[0] == "metric,K,value,bucket"
    buckets = {row.split(",")[3] for row in rows[1:]}
    assert {"all", "head", "tail"}.issubset(buckets)
    assert any(b.startswith("len_q") for b in buckets)


def test_eval_report_values_equal_the_per_row_reference(tmp_path, trained_ckpt):
    # cyclic runs of 3 to 12 items over the checkpoint's 15, so every length
    # bucket and both head and tail hold targets
    data = tmp_path / "varied"
    save_processed(SequenceDataset([[(u + j) % 15 + 1 for j in range(3 + u % 10)]
                                    for u in range(50)], [str(i) for i in range(1, 16)]), data)
    report = tmp_path / "report.csv"
    assert main(["eval", "--ckpt", str(trained_ckpt), "--data", str(data), "--steps", "3",
                 "--seed", "5", "--head-tail", "--length-buckets", "--mask-history",
                 "--out", str(report)]) == 0
    splits = split(load_processed(data))
    samples = splits.test
    ranks = reference_ranks(build_scorer(load_checkpoint(trained_ckpt), steps=3), samples,
                            RngStream(5), mask_history=True)
    head = head_items(splits.train_freqs, 15)
    lengths = [len(s.history) for s in samples]
    bounds = np.percentile(lengths, [20, 40, 60, 80], method="lower")
    # bucket q holds the lengths in (bounds[q - 1], bounds[q]]
    bucket = [int(np.sum(bounds < length)) for length in lengths]
    groups = [("all", [True] * len(samples)), ("head", [s.target in head for s in samples]),
              ("tail", [s.target not in head for s in samples])]
    groups += [(f"len_q{q + 1}", [b == q for b in bucket]) for q in range(5)]
    expected = [report_from_ranks([r for r, member in zip(ranks, members) if member],
                                  label=label) for label, members in groups]
    assert all(rep.n_evaluated for rep in expected)
    assert report.read_text().splitlines() == report_csv_rows(expected)


def test_eval_mask_history_flag(synth_dir, trained_ckpt):
    assert main(["eval", "--ckpt", str(trained_ckpt), "--data", str(synth_dir),
                 "--split", "valid", "--steps", "4", "--seed", "3",
                 "--mask-history"]) == 0


def test_eval_mask_history_rejects_an_unknown_item_before_the_window(tmp_path, trained_ckpt,
                                                                    capsys):
    # item 20 is in this vocabulary but not the checkpoint's 15; every history
    # keeps it ahead of its last max_len = 8 items
    data = tmp_path / "wide"
    data.mkdir()
    (data / "vocab.tsv").write_text("".join(f"{i}\titem{i}\n" for i in range(1, 21)))
    (data / "sequences.txt").write_text(
        "".join("20 " + " ".join(str((u + j) % 15 + 1) for j in range(12)) + "\n"
                for u in range(6)))
    argv = ["eval", "--ckpt", str(trained_ckpt), "--data", str(data), "--split", "test",
            "--steps", "4"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--mask-history"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "history item 20" in captured.err


def test_probe_command(tmp_path, trained_ckpt, capsys):
    out = tmp_path / "probe.csv"
    assert main(["probe", "--ckpt", str(trained_ckpt), "--sequence", "1,2,3",
                 "--steps", "4", "--n", "5", "--topk", "4", "--seed", "11",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "unique items in top-4" in printed
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("seed,x0,")
    assert len(lines) == 6
    assert lines[1].split(",")[0] == "11"


def test_baseline_command(synth_dir, capsys):
    assert main(["baseline", "--data", str(synth_dir), "--split", "test"]) == 0
    assert "popularity" in capsys.readouterr().out


def test_infer_rejects_malformed_sequence(trained_ckpt):
    assert main(["infer", "--ckpt", str(trained_ckpt), "--sequence", "a,b"]) == 2


@pytest.mark.parametrize("command", ["infer", "probe"])
def test_out_of_range_history_item_is_one_line_and_exit_2(tmp_path, trained_ckpt,
                                                           command, capsys):
    argv = [command, "--ckpt", str(trained_ckpt), "--sequence", "1,999"]
    if command == "probe":
        argv += ["--out", str(tmp_path / "probe.csv")]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "999" in captured.err


def _with_config_metadata(ckpt_bytes: bytes, **changes) -> bytes:
    return with_metadata(ckpt_bytes, lambda meta: meta["config"].update(changes))


def _as_format_1(ckpt_path) -> bytes:
    """The checkpoint as format 1 wrote it: no listing in the metadata, then a
    tensor count and each tensor's name, rank and dims before its payload."""
    ckpt = load_checkpoint(ckpt_path)
    meta = json.dumps({"config": dataclasses.asdict(ckpt.config),
                       "vocab_size": ckpt.vocab_size, "epoch": ckpt.epoch}).encode()
    out = MAGIC + struct.pack("<II", 1, len(meta)) + meta + struct.pack("<I", len(ckpt.tensors))
    for name, arr in ckpt.tensors.items():
        out += struct.pack(f"<I{len(name)}sI{arr.ndim}Q", len(name), name.encode(), arr.ndim,
                           *arr.shape) + arr.astype("<f8").tobytes()
    return out


_BAD_CONFIGS = {"train-heads-0": "heads = 0\n",
                "config-removed-key": "schedule_b_constant = false\n",
                "train-params-over-ceiling": "dim = 1000000\n",
                "config-float-dim": "dim = 8.0\n",
                "config-bad-float": "epochs = 1\nlearning_rate = fast\n"}
_EXPECTED_ERRORS = {
    "ckpt-removed-key": "unknown config keys: ['reverse_noise_sqrt']",
    "ckpt-float-dim": "dim must be of type int, got 16.0",
    "config-removed-key": "unknown key 'schedule_b_constant'",
    "train-params-over-ceiling": "(config.MAX_PARAMS)",
    "config-float-dim": "config line 1: cannot parse int dim = '8.0'",
    "config-bad-float": "config line 2: cannot parse float learning_rate = 'fast'",
    "truncated-ckpt": "file ends inside data of 'block0.ln2_b'",
    "nan-ckpt": "tensor 'item_emb' holds non-finite values",
    "ckpt-format-1": "seqdiff infer: format version 1, this build reads 2\n",
    "ckpt-tensors-not-a-list": "metadata field 'tensors' is not a list of [name, dims] pairs",
    "ckpt-no-tensors": "metadata missing field: 'tensors'",
    "ckpt-wrong-dim": ('tensor 0 is listed as ["item_emb", [17, 16]] where the metadata '
                       'implies ["item_emb", [16, 16]] (14 listed, 14 implied)\n'),
    "ckpt-trailing-bytes": "trailing bytes after the last tensor",
    "ckpt-blocks-10000000": "blocks must be in [0, 100] (config.MAX_BLOCKS_LIMIT), got 10000000",
    "probe-topk-over-catalogue": "top-k 16 exceeds the catalogue's 15 items",
    "probe-n-over-ceiling": "at most 100000 reversals (evaluate.MAX_REVERSALS), got 100000000",
    "out-train-missing-dir": "nodir does not exist",
    "out-eval-missing-dir": "nodir does not exist",
    "out-probe-is-dir": "is a directory",
    "ckpt-cut-in-metadata": "file ends inside metadata block",
    "ckpt-odd-dim": "seqdiff infer: metadata field 'config': dim must be even",
    "sequences-not-utf8": "sequences.txt: not UTF-8 text",
    "vocab-not-utf8": "vocab.tsv: not UTF-8 text",
    "raw-not-utf8": "raw.tsv: not UTF-8 text",
    "config-not-utf8": "bad.cfg: not UTF-8 text",
    "vocab-not-utf8-c-locale": "vocab.tsv: not UTF-8 text",
    "out-synth-empty": "seqdiff synth: --out is empty\n",
    "out-preprocess-empty": "seqdiff preprocess: --out is empty\n",
    "out-eval-empty": "seqdiff eval: --out is empty\n",
    "sequences-index-1_0": "sequences.txt: line 1: item index '1_0' is not an integer\n",
    "raw-timestamp-1_0": "raw.tsv: line 1: timestamp '1_0' is not an integer\n",
    "config-dim-1_6": "config line 1: cannot parse int dim = '1_6'\n",
    "config-heads-arabic-2": "config line 1: cannot parse int heads = '\u0662'\n",
    "config-learning-rate-plus": "config line 1: cannot parse float learning_rate = '+0.01'\n",
    "vocab-empty": "vocab.tsv: no items, but sequences.txt holds some\n",
    "synth-users-1_0": "seqdiff synth: argument --users: invalid int value: '1_0'\n",
    "infer-steps-plus": "seqdiff infer: argument --steps: invalid int value: '+1'\n",
    "infer-sequence-plus": "seqdiff infer: cannot parse item sequence '1,+2'\n",
    "infer-sequence-empty-field": "seqdiff infer: cannot parse item sequence '1,,2'\n",
    "infer-sequence-trailing-comma": "seqdiff infer: cannot parse item sequence '1,2,'\n",
}
# one file of a dataset of 15 items replaced; the fault's first word names it
_BAD_FILES = {"sequences-not-utf8": b"1 2 3\n\xff 2\n", "vocab-not-utf8": b"1\t\xff\n",
              "raw-not-utf8": b"u\t\xff\t1\n", "config-not-utf8": b"dim = 8\n\xff\n",
              # valid UTF-8 first: the C locale must not refuse it before the bad byte
              "vocab-not-utf8-c-locale": "1\tcaf\u00e9\n2\t".encode() + b"\xff\n",
              # int() and float() accept underscores, a leading + and non-ASCII digits
              "sequences-index-1_0": b"1 2 1_0\n", "raw-timestamp-1_0": b"u\ti\t1_0\n",
              "config-dim-1_6": b"dim = 1_6\n", "config-heads-arabic-2": "heads = \u0662\n".encode(),
              "config-learning-rate-plus": b"learning_rate = +0.01\n", "vocab-empty": b""}


@pytest.mark.parametrize("fault", ["steps-0", "truncated-ckpt", "nan-ckpt", "missing-ckpt",
                                   "bad-sequence", "missing-data", "steps-above-t",
                                   "infer-topk-negative", "probe-n-negative", "probe-topk-0",
                                   "train-heads-0", "eval-target-16", "eval-mask-target-16",
                                   "ckpt-removed-key", "ckpt-float-dim", "config-removed-key",
                                   "train-params-over-ceiling", "config-float-dim",
                                   "config-bad-float", "ckpt-blocks-10000000",
                                   "probe-topk-over-catalogue", "probe-n-over-ceiling",
                                   "out-train-missing-dir", "out-eval-missing-dir",
                                   "out-probe-is-dir", "ckpt-format-1",
                                   "ckpt-tensors-not-a-list", "ckpt-no-tensors", "ckpt-wrong-dim",
                                   "ckpt-trailing-bytes", "ckpt-cut-in-metadata", "ckpt-odd-dim",
                                   *_BAD_FILES, "out-synth-empty", "out-preprocess-empty",
                                   "out-eval-empty", "synth-users-1_0", "infer-steps-plus",
                                   "infer-sequence-plus", "infer-sequence-empty-field",
                                   "infer-sequence-trailing-comma"])
def test_bad_user_input_is_one_line_and_exit_2(tmp_path, synth_dir, trained_ckpt, fault,
                                               capsys, monkeypatch):
    ckpt_path = tmp_path / "bad.ckpt"
    if fault == "truncated-ckpt":
        ckpt_path.write_bytes(trained_ckpt.read_bytes()[:-50])
    elif fault == "nan-ckpt":
        ckpt = load_checkpoint(trained_ckpt)
        ckpt.tensors["item_emb"][1, 0] = float("nan")
        save_checkpoint(ckpt, ckpt_path)
    elif fault == "ckpt-removed-key":  # written by a build that had this field
        ckpt_path.write_bytes(_with_config_metadata(trained_ckpt.read_bytes(),
                                                    reverse_noise_sqrt=False))
    elif fault == "ckpt-float-dim":
        ckpt_path.write_bytes(_with_config_metadata(trained_ckpt.read_bytes(), dim=16.0))
    elif fault == "ckpt-blocks-10000000":
        ckpt_path.write_bytes(_with_config_metadata(trained_ckpt.read_bytes(),
                                                    blocks=10_000_000))
    elif fault == "ckpt-format-1":
        ckpt_path.write_bytes(_as_format_1(trained_ckpt))
    elif fault == "ckpt-tensors-not-a-list":
        ckpt_path.write_bytes(with_metadata(trained_ckpt.read_bytes(),
                                            lambda meta: meta.update(tensors={"item_emb": [16, 16]})))
    elif fault == "ckpt-no-tensors":
        ckpt_path.write_bytes(with_metadata(trained_ckpt.read_bytes(),
                                            lambda meta: meta.pop("tensors")))
    elif fault == "ckpt-wrong-dim":
        ckpt_path.write_bytes(with_metadata(trained_ckpt.read_bytes(),
                                            lambda meta: meta["tensors"][0][1].__setitem__(0, 17)))
    elif fault == "ckpt-trailing-bytes":
        ckpt_path.write_bytes(trained_ckpt.read_bytes() + b"\0")
    elif fault == "ckpt-cut-in-metadata":
        ckpt_path.write_bytes(trained_ckpt.read_bytes()[:40])
    elif fault == "ckpt-odd-dim":
        ckpt_path.write_bytes(_with_config_metadata(trained_ckpt.read_bytes(), dim=3))
    elif fault != "missing-ckpt":
        ckpt_path = trained_ckpt
    argv = ["infer", "--ckpt", str(ckpt_path), "--sequence", "1,2"]
    if fault == "steps-0":
        argv += ["--steps", "0"]
    elif fault == "steps-above-t":  # more steps than the model was trained on
        argv += ["--steps", str(load_checkpoint(trained_ckpt).config.t + 1)]
    elif fault == "bad-sequence":
        argv[-1] = "1,x"
    elif fault.startswith("infer-sequence-"):
        argv[-1] = {"plus": "1,+2", "empty-field": "1,,2",
                    "trailing-comma": "1,2,"}[fault[len("infer-sequence-"):]]
    elif fault == "infer-steps-plus":
        argv += ["--steps", "+1"]
    elif fault == "synth-users-1_0":
        argv = ["synth", "--users", "1_0", "--out", str(tmp_path)]
    elif fault == "missing-data":
        argv = ["baseline", "--data", str(tmp_path / "nodir")]
    elif fault == "infer-topk-negative":
        argv += ["--topk", "-3"]
    elif fault.startswith("out-"):  # refused before any work: no epoch line, no report
        out = str(tmp_path if fault == "out-probe-is-dir" else tmp_path / "nodir" / "out")
        if fault.endswith("-empty"):  # "" would be the working directory
            out = ""
            monkeypatch.chdir(tmp_path)
            (tmp_path / "raw.tsv").write_text("u\ti\t1\n")
        argv = {"train": ["train", "--data", str(synth_dir), "--config",
                          str(tmp_path / "train.cfg"), "--out", out],
                "eval": ["eval", "--ckpt", str(ckpt_path), "--data", str(synth_dir), "--out", out],
                "probe": ["probe", *argv[1:], "--out", out],
                "synth": ["synth", "--out", out],
                "preprocess": ["preprocess", "--in", str(tmp_path / "raw.tsv"), "--out", out],
                }[fault.split("-")[1]]
    elif fault in _BAD_FILES:
        data = tmp_path / "data8"
        data.mkdir()
        (data / "sequences.txt").write_text("1 2 3\n")
        (data / "vocab.tsv").write_text("".join(f"{i}\titem{i}\n" for i in range(1, 16)))
        name = {"sequences": "sequences.txt", "vocab": "vocab.tsv", "raw": "raw.tsv",
                "config": "bad.cfg"}[fault.split("-")[0]]
        (data / name).write_bytes(_BAD_FILES[fault])
        argv = {"raw.tsv": ["preprocess", "--in", str(data / name), "--out", str(data / "p")],
                "bad.cfg": ["train", "--data", str(data), "--config", str(data / name),
                            "--out", str(tmp_path / "out.ckpt")],
                }.get(name, ["eval", "--ckpt", str(ckpt_path), "--data", str(data)])
    elif fault.startswith("probe"):
        argv = ["probe", *argv[1:], "--out", str(tmp_path / "probe.csv")]
        argv += {"probe-n-negative": ["--n", "-5"], "probe-topk-0": ["--topk", "0"],
                 "probe-topk-over-catalogue": ["--topk", "16"],
                 "probe-n-over-ceiling": ["--n", "100000000"]}[fault]
    elif fault in _BAD_CONFIGS:
        (tmp_path / "bad.cfg").write_text(_BAD_CONFIGS[fault])
        argv = ["train", "--data", str(synth_dir), "--config", str(tmp_path / "bad.cfg"),
                "--out", str(tmp_path / "out.ckpt")]
    elif fault.startswith("eval"):  # items 16 and 17 are not in the checkpoint's 15
        data = tmp_path / "wide"
        data.mkdir()
        (data / "vocab.tsv").write_text("".join(f"{i}\titem{i}\n" for i in range(1, 18)))
        (data / "sequences.txt").write_text("1 2 3 16\n2 3 4 17\n")
        argv = ["eval", "--ckpt", str(ckpt_path), "--data", str(data)]
        argv += ["--mask-history"] if fault == "eval-mask-target-16" else []
    if fault.endswith("-c-locale"):  # the locale is fixed when the interpreter starts
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), LC_ALL="C",
                   PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        proc = subprocess.run([sys.executable, "-m", "seqdiff", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 2
        stdout, stderr = proc.stdout, proc.stderr
    else:
        capsys.readouterr()
        assert main(argv) == 2
        stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.count("\n") == 1
    assert stderr.startswith(f"seqdiff {argv[0]}: ")
    assert _EXPECTED_ERRORS.get(fault, "") in stderr
    assert not (tmp_path / "probe.csv").exists()
    assert not (tmp_path / "out.ckpt").exists()
    assert not (tmp_path / "sequences.txt").exists()


_EDGE_INTS = (-1, 0, 2**63, 2**64, 10**30)
_INT_FLAGS = {"infer": ("--seed", "--steps", "--topk", "--sequence"),
              "eval": ("--seed", "--steps"),
              "probe": ("--seed", "--steps", "--topk", "--n", "--sequence")}


def _edge_exit_code(command, flag, value):
    # at these values --steps (t = 4), --n, a history item (15 items) and the
    # probe's top-k are always out of range; infer prints at most every item
    in_range = {"--seed": 0 <= value < 2**64, "--topk": command == "infer" and value >= 1}
    return 0 if in_range.get(flag, False) else 2


def test_integer_inputs_at_their_edges_are_one_line_and_exit_0_or_2(tmp_path, synth_dir,
                                                                    trained_ckpt, capsys):
    out = str(tmp_path / "probe.csv")
    base = {"infer": {"--sequence": "1,2"}, "eval": {"--data": str(synth_dir)},
            "probe": {"--sequence": "1,2", "--n": "2", "--topk": "5", "--out": out}}
    cases = [(command, {**base[command], flag: f"1,{v}" if flag == "--sequence" else str(v)},
              _edge_exit_code(command, flag, v))
             for command, flags in _INT_FLAGS.items() for flag in flags for v in _EDGE_INTS]
    # the probe's seeds run from --seed to --seed + n - 1
    cases.append(("probe", {**base["probe"], "--seed": str(2**64 - 1)}, 2))
    escapes = []
    for command, flags, want in cases:
        argv = [command, "--ckpt", str(trained_ckpt)] + [a for kv in flags.items() for a in kv]
        capsys.readouterr()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # a traceback, or argparse's usage text
            escapes.append((argv[3:], repr(exc)))
            continue
        err = capsys.readouterr().err.splitlines()
        prefixed = all(line.startswith(f"seqdiff {command}: ") for line in err)
        if code != want or len(err) > 1 or (code == 2 and not err) or not prefixed:
            escapes.append((argv[3:], code, err))
    assert escapes == []


@pytest.mark.parametrize("value", [float("inf"), float("nan"), -1, 2.5, "7", None, True],
                         ids=["Infinity", "NaN", "-1", "2.5", "string-7", "null", "true"])
@pytest.mark.parametrize("field", ["vocab_size", "epoch"])
def test_checkpoint_metadata_that_is_not_a_count_is_one_line_and_exit_2(
        tmp_path, trained_ckpt, field, value, capsys):
    ckpt_path = tmp_path / "bad.ckpt"
    ckpt_path.write_bytes(with_metadata(trained_ckpt.read_bytes(),
                                        lambda meta: meta.update({field: value})))
    capsys.readouterr()
    assert main(["infer", "--ckpt", str(ckpt_path), "--sequence", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"seqdiff infer: metadata field '{field}' must be an integer")


@pytest.mark.parametrize("vocab_size,dim", [(2**33, 16), (2**40, 2**40)],
                         ids=["2^33", "2^40x2^40"])
def test_a_tensor_longer_than_its_checkpoint_file_is_one_line_and_exit_2(
        tmp_path, trained_ckpt, vocab_size, dim, capsys):
    # metadata whose listing matches its config and vocabulary, over the
    # trained checkpoint's few kilobytes of payload: the item table it
    # implies is refused before it is read, so loading costs no memory
    def claim(meta):
        meta["config"]["dim"] = dim
        meta.update(vocab_size=vocab_size, tensors=[
            [name, list(shape)] for name, shape in
            param_shapes(vocab_size, TrainConfig(**meta["config"])).items()])

    ckpt_path = tmp_path / "bad.ckpt"
    ckpt_path.write_bytes(with_metadata(trained_ckpt.read_bytes(), claim))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="data of 'item_emb'"):
            load_checkpoint(ckpt_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    capsys.readouterr()
    assert main(["infer", "--ckpt", str(ckpt_path), "--sequence", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "seqdiff infer: file ends inside data of 'item_emb'\n"


@pytest.mark.parametrize("metadata", [b"[" * 200_000, b'{"vocab_size": ' + b"7" * 5000 + b"}",
                                      b'{"config": "\xff"}'],
                         ids=["nested-200000", "5000-digit-int", "invalid-utf-8"])
def test_metadata_that_does_not_parse_is_one_line_and_exit_2(tmp_path, trained_ckpt,
                                                             metadata, capsys):
    ckpt_path = tmp_path / "bad.ckpt"
    ckpt_path.write_bytes(replace_metadata(trained_ckpt.read_bytes(), metadata))
    capsys.readouterr()
    assert main(["infer", "--ckpt", str(ckpt_path), "--sequence", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("seqdiff infer: checkpoint metadata does not parse: ")
    assert "sys." not in captured.err


@pytest.mark.parametrize("metadata,message", [
    (b"[]", "checkpoint metadata is not a JSON object"),
    (b"null", "checkpoint metadata is not a JSON object"),
    (b'{"config": 3, "vocab_size": 15, "epoch": 0, "tensors": []}',
     "metadata field 'config' is not a JSON object"),
], ids=["list", "null", "config-number"])
def test_metadata_that_is_not_an_object_is_named_in_one_line_and_exit_2(
        tmp_path, trained_ckpt, metadata, message, capsys):
    ckpt_path = tmp_path / "bad.ckpt"
    ckpt_path.write_bytes(replace_metadata(trained_ckpt.read_bytes(), metadata))
    capsys.readouterr()
    assert main(["infer", "--ckpt", str(ckpt_path), "--sequence", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"seqdiff infer: {message}\n"


@pytest.mark.parametrize("command", ["infer", "eval", "probe"])
def test_steps_on_an_adversarial_checkpoint_is_one_line_and_exit_2(
        tmp_path, synth_dir, command, capsys):
    cfg = desk_config(dim=16, blocks=1, heads=2, t=4, batch_size=32, epochs=1,
                      max_len=8, eval_every=0, mode="adversarial")
    cfg_path = tmp_path / "adv.cfg"
    cfg_path.write_text(format_config(cfg))
    ckpt_path = tmp_path / "adv.ckpt"
    assert main(["train", "--data", str(synth_dir), "--config", str(cfg_path),
                 "--out", str(ckpt_path)]) == 0
    argv = [command, "--ckpt", str(ckpt_path), "--steps", "99"]
    if command == "eval":
        argv += ["--data", str(synth_dir)]
    else:
        argv += ["--sequence", "1,2"]
    if command == "probe":
        argv += ["--out", str(tmp_path / "probe.csv")]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"seqdiff {command}: reverse steps (--steps) apply only "
                            f"to diffusion checkpoints\n")


def test_schedule_option_of_another_family_is_one_line_and_exit_2(tmp_path, capsys):
    out = tmp_path / "schedule.csv"
    assert main(["schedule-dump", "--kind", "cosine", "--t", "8", "--tau", "0.01",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1 and "tau=0.01" in captured.err


@pytest.mark.parametrize("command", ["eval", "infer"])
def test_non_finite_scores_are_one_line_and_exit_2(tmp_path, synth_dir, trained_ckpt,
                                                    command, capsys):
    # finite weights, so the checkpoint loads; the forward pass overflows
    ckpt = load_checkpoint(trained_ckpt)
    ckpt.tensors["item_emb"] *= 1e200
    ckpt_path = tmp_path / "scaled.ckpt"
    save_checkpoint(ckpt, ckpt_path)
    argv = [command, "--ckpt", str(ckpt_path)]
    argv += ["--data", str(synth_dir)] if command == "eval" else ["--sequence", "1,2"]
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"seqdiff {command}: the model produced non-finite item scores\n"


def test_overflow_warnings_stay_off_stderr(tmp_path, trained_ckpt):
    # in a fresh interpreter, where numpy prints its RuntimeWarnings; in this
    # process conftest turns overflow into an exception instead
    ckpt = load_checkpoint(trained_ckpt)
    ckpt.tensors["item_emb"] *= 1e200
    ckpt_path = tmp_path / "scaled.ckpt"
    save_checkpoint(ckpt, ckpt_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "seqdiff", "infer", "--ckpt", str(ckpt_path),
                           "--sequence", "1,2"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "seqdiff infer: the model produced non-finite item scores\n"


def test_diverging_training_is_one_line_and_exit_2(tmp_path, synth_dir):
    # in a fresh interpreter, as above: the overflow warnings of the diverging
    # batches stay off stderr, and the divergence is the one line printed
    cfg = desk_config(dim=16, blocks=1, heads=2, t=4, batch_size=32, epochs=2,
                      max_len=8, eval_every=0, learning_rate=1e300)
    cfg_path = tmp_path / "diverge.cfg"
    cfg_path.write_text(format_config(cfg))
    ckpt_path = tmp_path / "model.ckpt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "seqdiff", "train", "--data", str(synth_dir),
                           "--config", str(cfg_path), "--out", str(ckpt_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "seqdiff train: training diverged: loss=nan at epoch 1 batch 1\n"
    assert not ckpt_path.exists()


def test_warnings_are_one_line_each(tmp_path, trained_ckpt):
    # in a fresh interpreter, where Python prints warnings with their source line
    data = tmp_path / "short"
    data.mkdir()
    (data / "vocab.tsv").write_text("".join(f"{i}\titem{i}\n" for i in range(1, 16)))
    (data / "sequences.txt").write_text("1 2\n2 3\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "seqdiff", "eval", "--ckpt", str(trained_ckpt),
                           "--data", str(data)], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("seqdiff eval: warning: 2 sequences shorter than 3 excluded "
                           "from splits\nseqdiff eval: evaluation split is empty\n")


@pytest.mark.parametrize("option,value", [("--tau", "nan"), ("--a", "inf"), ("--b", "nan")])
def test_non_finite_schedule_option_is_one_line_and_exit_2(tmp_path, option, value, capsys):
    out = tmp_path / "schedule.csv"
    assert main(["schedule-dump", option, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (f"seqdiff schedule-dump: schedule option "
                            f"{option[2:]}={float(value)!r} must be finite\n")


@pytest.mark.parametrize("line", ["learning_rate = nan", "delta = inf", "schedule_tau = nan",
                                  "gamma_adv = nan"])
def test_non_finite_config_value_is_one_line_and_exit_2(tmp_path, synth_dir, line, capsys):
    (tmp_path / "bad.cfg").write_text(line + "\n")
    out = tmp_path / "out.ckpt"
    capsys.readouterr()
    assert main(["train", "--data", str(synth_dir), "--config", str(tmp_path / "bad.cfg"),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    field = line.split(" = ")[0]
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"seqdiff train: {field} must be finite")


def test_max_len_over_the_ceiling_is_one_line_and_exit_2(tmp_path, synth_dir, capsys,
                                                         monkeypatch):
    from seqdiff.config import MAX_LEN_LIMIT

    def no_params(*args):
        raise AssertionError("training built its parameters")

    monkeypatch.setattr("seqdiff.train.init_params", no_params)
    (tmp_path / "long.cfg").write_text(f"dim = 8\nheads = 2\nmax_len = {MAX_LEN_LIMIT + 1}\n")
    out = tmp_path / "out.ckpt"
    capsys.readouterr()
    assert main(["train", "--data", str(synth_dir), "--config", str(tmp_path / "long.cfg"),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (f"seqdiff train: max_len must be in [1, {MAX_LEN_LIMIT}] "
                            f"(config.MAX_LEN_LIMIT), got {MAX_LEN_LIMIT + 1}\n")


@pytest.mark.parametrize("command", ["schedule-dump", "train", "infer"])
def test_horizon_over_the_ceiling_is_one_line_and_exit_2(tmp_path, synth_dir, trained_ckpt,
                                                         command, capsys, monkeypatch):
    from seqdiff.config import MAX_T_LIMIT

    def past_the_check(*args):
        raise AssertionError("the command went past the horizon check")

    # at t = 10**9 a scorer's step table is 8 GB and a schedule 48 GB, so each
    # command stops here, before allocating, if its check is gone
    monkeypatch.setattr("seqdiff.schedule._betas_from_alpha_bar_fn", past_the_check)
    monkeypatch.setattr("seqdiff.train.init_params", past_the_check)
    monkeypatch.setattr(sys.modules["seqdiff.infer"], "model_from_checkpoint", past_the_check)
    t = 10**9
    if command == "schedule-dump":
        argv = [command, "--kind", "cosine", "--t", str(t), "--out", str(tmp_path / "s.csv")]
        message = "horizon"
    elif command == "train":
        (tmp_path / "long.cfg").write_text(f"dim = 8\nheads = 2\nt = {t}\n")
        argv = [command, "--data", str(synth_dir), "--config", str(tmp_path / "long.cfg"),
                "--out", str(tmp_path / "out.ckpt")]
        message = "t"
    else:
        ckpt = load_checkpoint(trained_ckpt)
        ckpt.config = dataclasses.replace(ckpt.config, t=t)
        save_checkpoint(ckpt, tmp_path / "long.ckpt")
        argv = [command, "--ckpt", str(tmp_path / "long.ckpt"), "--sequence", "1,2"]
        message = "metadata field 'config': t"
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"seqdiff {command}: {message} must be in [1, {MAX_T_LIMIT}] "
                            f"(config.MAX_T_LIMIT), got {t}\n")
    assert not any(tmp_path.glob("*.csv")) and not (tmp_path / "out.ckpt").exists()


_MUTANTS = {"Infinity": float("inf"), "NaN": float("nan"), "-1": -1, "1e30": 1e30,
            "10^30": 10**30, "10^400": 10**400, "x": "x", "null": None, "[]": [], "{}": {},
            "true": True}
_PYTHON_TEXT = ("Traceback", "object is not", "indices must be", "argument after", "NoneType")


def _mutations(meta: dict):
    """(label, metadata) pairs: each metadata field, each config field and each
    part of the first `tensors` entry set to each mutant, then the non-object
    top levels."""
    def mutate(path, value):
        copy = json.loads(json.dumps(meta))
        *parents, last = path
        owner = copy
        for key in parents:
            owner = owner[key]
        owner[last] = value
        return copy

    paths = [(key,) for key in meta] + [("config", key) for key in meta["config"]]
    paths += [("tensors", 0), ("tensors", 0, 0), ("tensors", 0, 1), ("tensors", 0, 1, 0)]
    for path in paths:
        for label, value in _MUTANTS.items():
            yield f"{'.'.join(map(str, path))}={label}", mutate(path, value)
    for label, value in (("[]", []), ("x", "x"), ("3", 3), ("null", None), ("true", True)):
        yield f"top-level={label}", value


def test_every_checkpoint_metadata_mutation_is_exit_0_or_one_line_and_exit_2(tmp_path,
                                                                               capsys):
    cfg = desk_config(dim=8, blocks=1, heads=2, t=4, batch_size=32, epochs=1, max_len=8,
                      eval_every=0)
    clean = tmp_path / "clean.ckpt"
    save_checkpoint(run_training(synth("cyclic", 30, 10, 6, 1), cfg).checkpoint, clean)
    ckpt_bytes = clean.read_bytes()
    (meta_len,) = struct.unpack("<I", ckpt_bytes[12:16])
    cases = list(_mutations(json.loads(ckpt_bytes[16:16 + meta_len])))
    assert len(cases) == 346
    path = tmp_path / "mutant.ckpt"
    escapes = []
    for label, meta in cases:
        path.write_bytes(replace_metadata(ckpt_bytes, json.dumps(meta).encode()))
        capsys.readouterr()
        try:
            code = main(["infer", "--ckpt", str(path), "--sequence", "1,2"])
        except Exception as exc:  # a traceback
            escapes.append((label, repr(exc)))
            continue
        err = capsys.readouterr().err
        lines = err.splitlines()
        one_line = len(lines) == 1 and lines[0].startswith("seqdiff infer: ")
        if code not in (0, 2) or (code == 2 and not one_line) or any(
                text in err for text in _PYTHON_TEXT):
            escapes.append((label, code, err))
    assert escapes == []


def test_text_files_are_written_and_read_as_utf8_in_a_c_locale(tmp_path):
    (tmp_path / "raw.tsv").write_text("u1\tcafé\t1\nu1\tthé\t2\nu1\tcafé\t3\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), LC_ALL="C",
               PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    proc = subprocess.run([sys.executable, "-m", "seqdiff", "preprocess", "--in",
                           str(tmp_path / "raw.tsv"), "--out", str(tmp_path / "data"),
                           "--min-count", "1"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "data" / "vocab.tsv").read_bytes() == "1\tcafé\n2\tthé\n".encode()


_CONFIG_VALUES = ("Infinity", "NaN", "-1", "1e30", "1" + "0" * 30, "1" + "0" * 400, "x", "",
                  "true", "1_0")


def _config_cases(tmp_path):
    """`train` with each config field set to each of _CONFIG_VALUES, on data
    whose split has no training sample, so that no case trains."""
    data = tmp_path / "untrainable"
    data.mkdir()
    (data / "sequences.txt").write_text("1 2 3\n3 2 1\n")
    (data / "vocab.tsv").write_text("1\ta\n2\tb\n3\tc\n")
    base = format_config(desk_config(dim=8, blocks=1, heads=2, t=4, batch_size=32, epochs=1,
                                     max_len=8, eval_every=0)).splitlines()
    for i, line in enumerate(base):
        field = line.split(" = ")[0]
        for value in _CONFIG_VALUES:
            path = tmp_path / f"{field}={value[:8]}.cfg"
            path.write_text("\n".join(base[:i] + [f"{field} = {value}"] + base[i + 1:]) + "\n")
            yield f"{field}={value[:8]}", ["train", "--data", str(data), "--config", str(path),
                                           "--out", str(tmp_path / "out.ckpt")]


_SEQUENCE_LINES = {"token-x": b"1 x 3", "token-0": b"0 1 2", "token-11": b"1 2 11",
                   "token-minus-1": b"1 -1 2", "token-1.5": b"1 1.5 2",
                   "token-10^30": b"1 2 1" + b"0" * 30, "token-1_0": b"1 2 1_0",
                   "tabs": b"1\t2\t3\t4", "spaces": b"   ", "not-utf8": b"1 \xff 3",
                   "bom": b"\xef\xbb\xbf1 2 3"}
_VOCAB_LINES = {"no-tab": b"1 1", "index-x": b"x\t1", "index-0": b"0\t1", "index-2": b"2\t1",
                "index-1.0": b"1.0\t1", "tab-in-id": b"1\ta\tb", "empty-id": b"1\t",
                "blank": b"", "not-utf8": b"1\t\xff", "bom": b"\xef\xbb\xbf1\t1"}


def _data_cases(tmp_path, ckpt_path, clean):
    """`eval` on the clean dataset with the first line of sequences.txt or
    vocab.tsv replaced, or with the whole file emptied, given CRLF line ends
    or given a blank line after each line."""
    for name, first_lines in (("sequences.txt", _SEQUENCE_LINES), ("vocab.tsv", _VOCAB_LINES)):
        text = (clean / name).read_bytes()
        variants = {label: line + text[text.index(b"\n"):] for label, line in first_lines.items()}
        variants.update({"empty": b"", "crlf": text.replace(b"\n", b"\r\n"),
                         "blank-lines": text.replace(b"\n", b"\n\n")})
        for label, variant in variants.items():
            data = tmp_path / f"{name}-{label}"
            shutil.copytree(clean, data)
            (data / name).write_bytes(variant)
            yield f"{name}:{label}", ["eval", "--ckpt", str(ckpt_path), "--data", str(data)]


def _checkpoint_cases(tmp_path, ckpt_bytes, shapes):
    """`infer` on the checkpoint cut inside its metadata and at the start of
    each payload, and with each of its 16 header bytes set to 0, set to 255
    and with its low bit flipped."""
    (meta_len,) = struct.unpack("<I", ckpt_bytes[12:16])
    starts = list(accumulate((8 * math.prod(s) for s in shapes.values()), initial=16 + meta_len))
    assert starts[-1] == len(ckpt_bytes)
    variants = [(f"cut-at-{n}", ckpt_bytes[:n])
                for n in (16, 17, 16 + meta_len // 2, 16 + meta_len - 1, *starts[:-1])]
    for i in range(16):
        for label, byte in (("0", 0), ("255", 255), ("flip", ckpt_bytes[i] ^ 1)):
            variants.append((f"byte-{i}={label}",
                             ckpt_bytes[:i] + bytes([byte]) + ckpt_bytes[i + 1:]))
    for label, variant in variants:
        path = tmp_path / f"{label}.ckpt"
        path.write_bytes(variant)
        yield label, ["infer", "--ckpt", str(path), "--sequence", "1,2"]


def test_every_config_data_and_checkpoint_fault_is_exit_0_or_one_line_and_exit_2(tmp_path,
                                                                                  capsys):
    # exit 0 with no error line, or exit 2 with one; warnings print before it
    cfg = desk_config(dim=8, blocks=1, heads=2, t=4, batch_size=32, epochs=1, max_len=8,
                      eval_every=0)
    dataset = synth("cyclic", 30, 10, 6, 1)
    ckpt_path, clean = tmp_path / "clean.ckpt", tmp_path / "clean"
    save_checkpoint(run_training(dataset, cfg).checkpoint, ckpt_path)
    save_processed(dataset, clean)
    cases = [*_config_cases(tmp_path), *_data_cases(tmp_path, ckpt_path, clean),
             *_checkpoint_cases(tmp_path, ckpt_path.read_bytes(), param_shapes(10, cfg))]
    assert len(cases) == 23 * 10 + 2 * 3 + 11 + 10 + 4 + 14 + 16 * 3
    escapes = []
    for label, argv in cases:
        prefix = f"seqdiff {argv[0]}: "
        capsys.readouterr()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # a traceback, or argparse's usage text
            escapes.append((label, repr(exc)))
            continue
        lines = capsys.readouterr().err.splitlines()
        errors = [line for line in lines if not line.startswith(prefix + "warning: ")]
        if code not in (0, 2) or len(errors) != (code == 2) or not all(
                line.startswith(prefix) and not any(text in line for text in _PYTHON_TEXT)
                for line in lines):
            escapes.append((label, code, lines))
    assert escapes == []
