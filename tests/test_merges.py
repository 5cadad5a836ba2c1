"""Tests for the merge library: every merge must reconcile partials into
exactly what an un-cloned task would have produced."""

from collections import Counter

import pytest

from repro.errors import ReproError
from repro.merges import (
    Bitset,
    CountMinSketch,
    HyperLogLog,
    MedianState,
    TopK,
    bitset_union_merge,
    concat_merge,
    counter_merge,
    dict_sum_merge,
    get_merge,
    median_merge,
    merge_names,
    register_merge,
    set_union_merge,
    sorted_merge,
    sum_merge,
    topk_merge,
)


class TestBasicMerges:
    def test_concat(self):
        assert concat_merge([1, 2], [3]) == [1, 2, 3]

    def test_sum(self):
        assert sum_merge(4, 5) == 9

    def test_counter(self):
        merged = counter_merge(Counter(a=1, b=2), Counter(b=3, c=1))
        assert merged == Counter(a=1, b=5, c=1)

    def test_dict_sum(self):
        assert dict_sum_merge({"x": 1.0, "y": 2.0}, {"y": 3.0, "z": 1.0}) == {
            "x": 1.0,
            "y": 5.0,
            "z": 1.0,
        }

    def test_set_union(self):
        assert set_union_merge({1, 2}, {2, 3}) == {1, 2, 3}


class TestBitset:
    def test_set_and_test(self):
        bits = Bitset()
        bits.set(5)
        bits.set(1000)
        assert bits.test(5) and bits.test(1000)
        assert not bits.test(6)

    def test_count(self):
        assert Bitset.from_keys([1, 5, 5, 9]).count() == 3

    def test_union_merge_equals_combined_build(self):
        a = Bitset.from_keys(range(0, 100, 2))
        b = Bitset.from_keys(range(0, 100, 3))
        combined = Bitset.from_keys(list(range(0, 100, 2)) + list(range(0, 100, 3)))
        assert bitset_union_merge(a, b) == combined

    def test_iteration(self):
        assert list(Bitset.from_keys([9, 1, 5])) == [1, 5, 9]

    def test_bytes_roundtrip(self):
        bits = Bitset.from_keys([0, 63, 64, 1000])
        assert Bitset.from_bytes(bits.to_bytes()) == bits

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            Bitset().set(-1)

    def test_update_is_a_set_loop(self):
        keys = [9, 1, 5, 1, 1000, 0]
        one_by_one, at_once = Bitset.from_keys([3]), Bitset.from_keys([3])
        for key in keys:
            one_by_one.set(key)
        at_once.update(iter(keys))
        assert at_once == one_by_one
        at_once.update([])
        assert at_once == one_by_one

    def test_update_rejects_a_negative_key_like_set(self):
        bits = Bitset.from_keys([2])
        with pytest.raises(ValueError, match="non-negative, got -1"):
            bits.update([4, -1, 6])
        assert bits == Bitset.from_keys([2])  # all or nothing


class TestSortedMerges:
    def test_sorted_merge(self):
        assert sorted_merge([1, 4, 9], [2, 4, 8]) == [1, 2, 4, 4, 8, 9]

    def test_topk_merge_equals_global_topk(self):
        left = TopK(3, [5, 1, 9, 2])
        right = TopK(3, [7, 8, 0])
        assert topk_merge(left, right).items() == [9, 8, 7]

    def test_topk_mismatched_k(self):
        with pytest.raises(ValueError):
            TopK(2).merge(TopK(3))

    def test_median_merge_is_exact(self):
        left = MedianState([1, 9, 5])
        right = MedianState([2, 8])
        merged = median_merge(left, right)
        assert merged.median() == 5

    def test_median_even_count(self):
        assert MedianState([1, 2, 3, 4]).median() == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            MedianState().median()


class TestSketches:
    def test_cms_never_undercounts(self):
        sketch = CountMinSketch(width=64, depth=4)
        truth = Counter()
        for i in range(300):
            item = f"key{i % 37}"
            sketch.add(item)
            truth[item] += 1
        for item, count in truth.items():
            assert sketch.estimate(item) >= count

    def test_cms_merge_equals_union_stream(self):
        a = CountMinSketch(width=128, depth=4)
        b = CountMinSketch(width=128, depth=4)
        union = CountMinSketch(width=128, depth=4)
        for i in range(100):
            a.add(i)
            union.add(i)
        for i in range(50, 150):
            b.add(i)
            union.add(i)
        merged = a.merge(b)
        for i in range(150):
            assert merged.estimate(i) == union.estimate(i)

    def test_cms_shape_mismatch(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=16, depth=2).merge(CountMinSketch(width=32, depth=2))

    def test_cms_for_error(self):
        sketch = CountMinSketch.for_error(eps=0.01, delta=0.01)
        assert sketch.width >= 272
        assert sketch.depth >= 4

    def test_hll_accuracy(self):
        sketch = HyperLogLog(p=12)
        for i in range(50_000):
            sketch.add(i)
        assert abs(sketch.cardinality() - 50_000) / 50_000 < 0.05

    def test_hll_merge_equals_union_stream(self):
        a = HyperLogLog(p=10)
        b = HyperLogLog(p=10)
        union = HyperLogLog(p=10)
        for i in range(2000):
            a.add(i)
            union.add(i)
        for i in range(1000, 3000):
            b.add(i)
            union.add(i)
        assert a.merge(b).cardinality() == union.cardinality()

    def test_hll_small_range_correction(self):
        sketch = HyperLogLog(p=10)
        for i in range(10):
            sketch.add(i)
        assert abs(sketch.cardinality() - 10) < 2

    def test_hll_invalid_p(self):
        with pytest.raises(ValueError):
            HyperLogLog(p=2)


class TestRegistry:
    def test_builtins_registered(self):
        for name in ("concat", "sum", "bitset_union", "dict_sum", "median"):
            assert name in merge_names()
            assert callable(get_merge(name))

    def test_unknown_merge(self):
        with pytest.raises(ReproError):
            get_merge("nope")

    def test_no_silent_redefinition(self):
        with pytest.raises(ReproError):
            register_merge("sum", sum_merge)

    def test_explicit_overwrite(self):
        register_merge("test_overwrite", sum_merge)
        register_merge("test_overwrite", concat_merge, overwrite=True)
        assert get_merge("test_overwrite") is concat_merge
