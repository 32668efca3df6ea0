import math
import re
import tracemalloc

import numpy as np
import pytest

from seqdiff.data import (MAX_SYNTH_ACTIONS, MAX_SYNTH_ITEMS, InteractionRecord,
                          SequenceDataset, ingest, load_processed, parse_number, preprocess,
                          save_processed, split, synth)
from seqdiff.train import run_training
from conftest import desk_config, markov_transition_matrix


def _write(tmp_path, text):
    path = tmp_path / "raw.tsv"
    path.write_text(text)
    return path


def test_ingest_parses_tab_separated_lines(tmp_path):
    path = _write(tmp_path, "u1\ti9\t100\n\nu2\ti3\t50\n")
    records = ingest(path)
    assert records == [InteractionRecord("u1", "i9", 100),
                       InteractionRecord("u2", "i3", 50)]


def test_ingest_rejects_comma_lines_with_line_number(tmp_path):
    path = _write(tmp_path, "u1,i9,100\n")
    with pytest.raises(ValueError) as err:
        ingest(path)
    assert "line 1" in str(err.value)


def test_ingest_rejects_non_integer_timestamp(tmp_path):
    path = _write(tmp_path, "u1\ti9\tnoon\n")
    with pytest.raises(ValueError) as err:
        ingest(path)
    assert "line 1" in str(err.value)


def test_ingest_empty_file(tmp_path):
    assert ingest(_write(tmp_path, "")) == []


def _records(triples):
    """triples: list of (user, item, ts)."""
    return [InteractionRecord(u, i, t) for u, i, t in triples]


def test_preprocess_drops_sparse_users():
    recs = []
    for k in range(5):
        recs += [("active", f"i{j}", 10 * j + k) for j in range(5)]
    recs += [("casual", "i0", 1), ("casual", "i1", 2),
             ("casual", "i2", 3), ("casual", "i3", 4)]
    ds = preprocess(_records(recs), min_count=5, max_len=50)
    assert [len(seq) for seq in ds.sequences] == [25]  # casual's 4 events are gone


def test_preprocess_drops_rare_items_first():
    recs = [("u", f"i{j}", j) for j in range(6)]           # six distinct rare items
    recs += [("v", "pop", t) for t in range(5)]            # one popular item
    ds = preprocess(_records(recs), min_count=5, max_len=50)
    assert ds.item_ids == ["pop"]
    assert ds.sequences == [[1] * 5]


def test_preprocess_truncates_to_most_recent():
    # five items cycling over 25 increasing timestamps keeps everything frequent
    recs = [("u", f"i{j % 5}", j) for j in range(25)]
    ds = preprocess(_records(recs), min_count=5, max_len=3)
    assert len(ds.sequences[0]) == 3
    # most recent three events survive (ties keep file order)
    assert [ds.item_ids[i - 1] for i in ds.sequences[0]] == ["i2", "i3", "i4"]


def test_preprocess_orders_by_timestamp_with_stable_ties():
    recs = _records([("u", "b", 5), ("u", "a", 5), ("u", "c", 1)] * 5)
    ds = preprocess(_records([]) + recs, min_count=1, max_len=50)
    names = [ds.item_ids[i - 1] for i in ds.sequences[0]]
    assert names[:5] == ["c"] * 5
    assert names[5:7] == ["b", "a"]  # equal timestamps keep input order


@pytest.mark.parametrize("max_len", [0, -1])
def test_preprocess_rejects_max_len_below_one(max_len):
    # recs[-0:] would keep the whole history and recs[-(-1):] drop the oldest item
    recs = _records([("u", f"i{j % 5}", j) for j in range(20)])
    with pytest.raises(ValueError, match="max_len"):
        preprocess(recs, min_count=1, max_len=max_len)


def test_preprocess_empty_result_is_an_error():
    with pytest.raises(ValueError):
        preprocess(_records([("u", "i", 1)]), min_count=5)


def test_preprocess_counts_actions_before_truncation():
    recs = _records([("u", f"i{j % 5}", j) for j in range(20)])
    ds = preprocess(recs, min_count=1, max_len=10)
    assert ds.n_actions == 20
    assert len(ds.sequences[0]) == 10
    assert ds.avg_len == 10.0


def test_index_density_and_bijection():
    rng = np.random.default_rng(0)
    recs = [(f"u{rng.integers(0, 20)}", f"i{rng.integers(0, 30)}", int(ts))
            for ts in range(2000)]
    ds = preprocess(_records(recs), min_count=5, max_len=50)
    seen = {i for seq in ds.sequences for i in seq}
    assert seen == set(range(1, ds.n_items + 1))
    assert len(set(ds.item_ids)) == len(ds.item_ids)


def test_kcore_iterate_reaches_fixpoint():
    # u2's only item becomes rare once u1 disappears; one pass keeps it,
    # iteration removes it
    recs = []
    recs += [("u1", f"x{j}", j) for j in range(4)] + [("u1", "shared", 9)]
    recs += [("u2", "shared", t) for t in range(5)]
    for k in range(3):
        recs += [(f"filler{k}", "shared", 20 + k)]
    single = preprocess(_records(recs), min_count=5, max_len=50)
    assert "shared" in single.item_ids
    iterated = preprocess(_records(recs), min_count=5, max_len=50,
                          kcore_iterate=True)
    counts = {}
    for seq in iterated.sequences:
        for i in seq:
            counts[i] = counts.get(i, 0) + 1
    assert all(c >= 5 for c in counts.values())


def test_split_views_by_definition():
    seq = [1, 2, 3, 4, 5]
    ds = synth("cyclic", 1, 10, 5, seed=0)
    ds.sequences = [seq]
    splits = split(ds)
    assert splits.train[0].history == (1, 2) and splits.train[0].target == 3
    assert splits.valid[0].history == (1, 2, 3) and splits.valid[0].target == 4
    assert splits.test[0].history == (1, 2, 3, 4) and splits.test[0].target == 5


def test_split_length_three_has_no_train_sample():
    ds = synth("cyclic", 1, 10, 3, seed=0)
    ds.sequences = [[1, 2, 3]]
    splits = split(ds)
    assert len(splits.train) == 0 and len(splits.valid) == len(splits.test) == 1
    assert splits.valid[0].history == (1,) and splits.valid[0].target == 2
    assert splits.test[0].history == (1, 2) and splits.test[0].target == 3


def test_split_excludes_short_sequences_with_count():
    ds = synth("cyclic", 2, 10, 4, seed=0)
    ds.sequences = [[1, 2], [1, 2, 3, 4]]
    with pytest.warns(UserWarning, match="1 sequences shorter"):
        splits = split(ds)
    assert len(splits.train) == len(splits.valid) == len(splits.test) == 1
    assert splits.test[0].target == 4


@pytest.mark.parametrize("item", [7, 0, -1])
def test_split_refuses_an_item_outside_the_vocabulary(item):
    # 7 used to index past the frequency table, 0 trained on the padding row
    # and -1 counted as the last item until the embedding lookup failed
    dataset = SequenceDataset([[1, 2, 1, 2, 1], [1, 2, item, 1, 2, 9]] * 3, ["a", "b"])
    message = re.escape(f"sequence 1: item {item} is outside [1, 2]")
    with pytest.raises(ValueError, match=message):
        split(dataset)
    with pytest.raises(ValueError, match=message):
        run_training(dataset, desk_config(dim=8, blocks=1, heads=2, t=2, epochs=1))


def test_split_targets_not_in_train_supervision():
    ds = synth("markov", 50, 20, 10, seed=3)
    splits = split(ds)
    for tr, va, te in zip(splits.train, splits.valid, splits.test):
        full = tr.history + (tr.target,)
        assert va.history == full
        assert te.history == full + (va.target,)
        assert len(set([va.target, te.target]) & set([tr.target])) in (0, 1, 2)
        # positions differ even when items repeat:
        assert len(te.history) == len(tr.history) + 2


def test_synth_cyclic_structure():
    ds = synth("cyclic", 20, 50, 4, seed=9)
    for seq in ds.sequences:
        for a, b in zip(seq, seq[1:]):
            assert b == (a % 50) + 1
    ds_wrap = synth("cyclic", 200, 50, 4, seed=1)
    starts = {seq[0] for seq in ds_wrap.sequences}
    assert 50 in starts  # wraparound exercised
    for seq in ds_wrap.sequences:
        if seq[0] == 50:
            assert seq[1] == 1


def test_synth_deterministic():
    a = synth("markov", 30, 15, 8, seed=77)
    b = synth("markov", 30, 15, 8, seed=77)
    assert a.sequences == b.sequences


def test_synth_markov_dominant_frequency():
    n_items = 10
    mat = markov_transition_matrix(n_items, seed=5)
    assert np.allclose(mat.sum(axis=1), 1.0)
    ds = synth("markov", 2000, n_items, 52, seed=5)
    transitions = {}
    for seq in ds.sequences:
        for a, b in zip(seq, seq[1:]):
            transitions.setdefault(a, []).append(b)
    # every row's dominant successor appears with frequency 0.8 +- 0.01
    total_checked = 0
    for a, nexts in transitions.items():
        if len(nexts) < 5000:
            continue
        dom = int(np.argmax(mat[a - 1]) + 1)
        freq = np.mean([n == dom for n in nexts])
        assert abs(freq - 0.8) < 0.01
        total_checked += 1
    assert total_checked >= 1


def test_synth_rejects_bad_sizes():
    with pytest.raises(ValueError):
        synth("cyclic", 1, 1, 5, seed=0)
    with pytest.raises(ValueError):
        synth("cyclic", 1, 5, 2, seed=0)
    with pytest.raises(ValueError):
        synth("spiral", 1, 5, 5, seed=0)


@pytest.mark.parametrize("kind", ["cyclic", "markov"])
@pytest.mark.parametrize("users, items, length, field", [
    (2, MAX_SYNTH_ITEMS + 1, 5, "n_items"),
    (2, 10**10, 5, "n_items"),
    (MAX_SYNTH_ACTIONS // 4 + 1, 10, 4, "n_users \\* seq_len"),
    (10**9, 10, 20, "n_users \\* seq_len"),
])
def test_synth_refuses_sizes_over_the_ceilings_before_allocating(kind, users, items, length,
                                                                 field):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{field} must be at most"):
            synth(kind, users, items, length, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_save_load_round_trip(tmp_path):
    ds = synth("markov", 12, 9, 6, seed=2)
    save_processed(ds, tmp_path / "out")
    loaded = load_processed(tmp_path / "out")
    assert loaded.sequences == ds.sequences
    assert loaded.item_ids == ds.item_ids
    vocab = (tmp_path / "out" / "vocab.tsv").read_text().splitlines()
    assert vocab[0] == "1\t1"


def test_load_processed_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_processed(tmp_path)


@pytest.mark.parametrize("name,text", [("sequences.txt", "1 2\n1 2 x\n"),
                                       ("vocab.tsv", "1\t1\ntwo\t2\n"),
                                       ("vocab.tsv", "1\t1\n2\n")])
def test_load_processed_names_file_and_line_of_bad_token(tmp_path, name, text):
    save_processed(synth("cyclic", 3, 2, 4, seed=0), tmp_path)
    (tmp_path / name).write_text(text)
    with pytest.raises(ValueError) as err:
        load_processed(tmp_path)
    assert str(err.value).startswith(f"{tmp_path / name}: line 2: ")


def test_load_processed_counts_vocab_indices_past_blank_lines(tmp_path):
    save_processed(synth("cyclic", 3, 2, 4, seed=0), tmp_path)
    (tmp_path / "vocab.tsv").write_text("1\ta\n\n2\tb\n3\tc\n")
    assert load_processed(tmp_path).item_ids == ["a", "b", "c"]
    (tmp_path / "vocab.tsv").write_text("1\ta\n\n3\tc\n")
    with pytest.raises(ValueError, match="line 3: non-contiguous index, expected 2"):
        load_processed(tmp_path)


def test_ingest_rejects_negative_timestamp(tmp_path):
    path = _write(tmp_path, "u1\ti9\t-5\n")
    with pytest.raises(ValueError):
        ingest(path)


def test_filtering_soundness_property():
    # after the single pass, every surviving item passed the item-count check
    # and every surviving user passed the post-item-filter length check
    rng = np.random.default_rng(42)
    recs = _records([(f"u{rng.integers(0, 40)}", f"i{rng.integers(0, 60)}", int(t))
                     for t in range(3000)])
    min_count = 5
    ds = preprocess(recs, min_count=min_count, max_len=1000)
    from collections import Counter
    raw_item_counts = Counter(r.item for r in recs)
    surviving_items = set(ds.item_ids)
    for item in surviving_items:
        assert raw_item_counts[item] >= min_count
    post_item_user_counts = Counter(
        r.user for r in recs if raw_item_counts[r.item] >= min_count)
    # one sequence per such user, in order of first appearance, untruncated
    assert [len(seq) for seq in ds.sequences] == [
        n for n in post_item_user_counts.values() if n >= min_count]


@pytest.mark.parametrize("text,kind,value", [
    ("0", int, 0), ("-12", int, -12), (" 7\r\n", int, 7), ("0.001", float, 0.001),
    ("1e-3", float, 0.001), ("-2.5", float, -2.5), ("5.", float, 5.0), (".5", float, 0.5),
    ("1E+3", float, 1000.0), ("12", float, 12.0), ("-inf", float, -math.inf),
    ("Infinity", float, math.inf)])
def test_parse_number_reads_ascii_numbers(text, kind, value):
    out = parse_number(text, kind)
    assert type(out) is kind and out == value


def test_parse_number_reads_nan_for_the_range_checks_to_name():
    assert math.isnan(parse_number("nan", float))


@pytest.mark.parametrize("text,kind", [
    ("1_0", int), ("+1", int), ("\u0662", int), ("", int), ("-", int), ("1.0", int),
    ("1e3", int), ("0x10", int), ("\u00a07", int), ("1_0.5", float), ("+0.5", float),
    ("\u0661.5", float), ("+inf", float), ("inf", int), ("1e", float), ("e3", float),
    (".", float), ("\u0131nf", float)])
def test_parse_number_refuses_what_int_and_float_would_stretch_to(text, kind):
    with pytest.raises(ValueError, match="invalid"):
        parse_number(text, kind)
