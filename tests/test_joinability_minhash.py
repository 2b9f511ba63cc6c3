"""Tests for the MinHash/LSH approximate join search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joinability import lshindex
from repro.joinability.lshindex import signature_of_values
from repro.joinability.minhash import (
    _MAX_HASH,
    _MERSENNE,
    LshIndex,
    MinHasher,
    _stable_hash,
    approximate_joinable_pairs,
    estimate_jaccard,
)
from repro.joinability.index import build_profiles
from repro.dataframe import Column, Table
from tests.test_joinability_pairs import wrap


class TestMinHash:
    def test_identical_sets_estimate_one(self):
        hasher = MinHasher.create(num_perm=64)
        values = [f"v{i}" for i in range(100)]
        assert estimate_jaccard(
            hasher.signature(values), hasher.signature(values)
        ) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        hasher = MinHasher.create(num_perm=128)
        a = hasher.signature([f"a{i}" for i in range(100)])
        b = hasher.signature([f"b{i}" for i in range(100)])
        assert estimate_jaccard(a, b) < 0.15

    def test_estimate_tracks_true_jaccard(self):
        hasher = MinHasher.create(num_perm=256)
        base = [f"v{i}" for i in range(100)]
        overlapping = base[:80] + [f"w{i}" for i in range(20)]
        true_jaccard = 80 / 120
        estimate = estimate_jaccard(
            hasher.signature(base), hasher.signature(overlapping)
        )
        assert abs(estimate - true_jaccard) < 0.12

    def test_signature_deterministic(self):
        hasher = MinHasher.create(num_perm=32, seed=5)
        values = ["x", "y", "z"]
        assert hasher.signature(values) == hasher.signature(values)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            estimate_jaccard((1, 2), (1,))

    def test_empty_set(self):
        hasher = MinHasher.create(num_perm=16)
        assert hasher.signature([]) == (_MAX_HASH,) * 16
        assert signature_of_values(frozenset(), hasher, {}) == (
            (_MAX_HASH,) * 16
        )

    def test_coefficients_derived_from_sha256_stream(self):
        """Pinned values: the hasher must be stable across Python
        versions (persisted index signatures depend on it), so the
        coefficients come from sha256, not ``random.Random``."""
        import hashlib

        hasher = MinHasher.create(num_perm=4, seed=9)
        for i, (a, b) in enumerate(hasher.coefficients):
            digest = hashlib.sha256(f"minhash:9:{i}".encode()).digest()
            assert a == int.from_bytes(digest[:16], "big") % (_MERSENNE - 1) + 1
            assert b == int.from_bytes(digest[16:], "big") % _MERSENNE


def naive_minhash(hashes, coefficients):
    """The per-permutation MinHash formula: the kernel's oracle."""
    return tuple(
        min(
            (((a * h + b) % _MERSENNE) & _MAX_HASH for h in hashes),
            default=_MAX_HASH,
        )
        for a, b in coefficients
    )


def naive_signature(values, hasher):
    return naive_minhash(
        [_stable_hash(v) for v in values], hasher.coefficients
    )


value_sets = st.frozensets(st.text(max_size=6), max_size=40)


class TestSignatureKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        num_perm=st.sampled_from([4, 16, 32, 64, 128, 256]),
        seed=st.sampled_from([1, 2, 7, 11]),
        values=value_sets,
        others=st.lists(value_sets, max_size=4),
    )
    def test_matches_naive_oracle(self, num_perm, seed, values, others):
        hasher = MinHasher.create(num_perm=num_perm, seed=seed)
        expected = naive_signature(values, hasher)
        assert signature_of_values(values, hasher) == expected
        assert signature_of_values(values, hasher, {}) == expected
        shared: dict[str, int] = {}
        for other in others:
            assert signature_of_values(other, hasher, shared) == (
                naive_signature(other, hasher)
            )
        assert signature_of_values(values, hasher, shared) == expected
        assert hasher.signature(values) == expected

    # 2^62 under (2^60, M-1) folds to exactly M, and 2^63+1 under
    # (2^60, 2^60-1) to M+2: both take the conditional subtract.
    RAW_HASHES = (
        0,
        1,
        _MERSENNE - 1,
        _MERSENNE,
        _MERSENNE + 1,  # = 2^61
        1 << 62,
        1 << 63,
        (1 << 63) + 1,
        (1 << 64) - 1,
    )
    EDGE_COEFFICIENTS = (
        (1, 0),
        (1, _MERSENNE - 1),
        (_MERSENNE - 1, 0),
        (_MERSENNE - 1, _MERSENNE - 1),
        (1 << 60, _MERSENNE - 1),
        (1 << 60, (1 << 60) - 1),
    )

    @staticmethod
    def raw_signature(monkeypatch, hashes, coefficients):
        """The kernel over raw 64-bit hashes instead of hashed strings."""
        monkeypatch.setattr(lshindex, "_stable_hash", int)
        hasher = MinHasher(
            num_perm=len(coefficients), coefficients=tuple(coefficients)
        )
        return signature_of_values([str(h) for h in hashes], hasher)

    @pytest.mark.parametrize("raw", RAW_HASHES)
    def test_lane_arithmetic_on_edge_hashes(self, monkeypatch, raw):
        coefficients = (
            self.EDGE_COEFFICIENTS + MinHasher.create(num_perm=8).coefficients
        )
        assert self.raw_signature(monkeypatch, [raw], coefficients) == (
            naive_minhash([raw], coefficients)
        )

    def test_lane_min_over_edge_hashes(self, monkeypatch):
        coefficients = self.EDGE_COEFFICIENTS
        assert self.raw_signature(
            monkeypatch, self.RAW_HASHES, coefficients
        ) == naive_minhash(self.RAW_HASHES, coefficients)

    @settings(max_examples=100, deadline=None)
    @given(
        hashes=st.lists(
            st.integers(0, (1 << 64) - 1), min_size=1, max_size=8
        ),
        coefficients=st.lists(
            st.tuples(
                st.integers(1, _MERSENNE - 1), st.integers(0, _MERSENNE - 1)
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_raw_lanes_match_formula(self, hashes, coefficients):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert self.raw_signature(monkeypatch, hashes, coefficients) == (
                naive_minhash(hashes, coefficients)
            )


class TestGoldenSignatures:
    """Seed-7, 64-permutation signatures pinned to literal values.

    Journals, shards and the index store carry these signatures, so a
    kernel change that alters any of them must fail here first.
    """

    COLUMNS = {
        "cities": frozenset({"berlin", "paris", "rome", "zürich"}),
        "codes": frozenset(str(i) for i in range(1, 21)),
        "single": frozenset({"2024-01-01"}),
    }
    GOLDEN = {
        "cities": (
            628709183, 150822081, 202172675, 1416673591,
            1161812078, 46024064, 537434040, 109669053,
            307512885, 1043583144, 545452471, 588710800,
            580551082, 2044887837, 894391204, 476391887,
            1447424830, 159778013, 1383764874, 2624894595,
            111273780, 1380771786, 919095277, 433532706,
            927620620, 2485835062, 116518620, 2259284017,
            704655353, 1160790811, 2163887047, 205947868,
            55414158, 548676917, 658127871, 652603289,
            382436973, 1079630376, 170633015, 571829778,
            1269450786, 2661432241, 429733256, 221023020,
            831131147, 169917766, 767559874, 278670228,
            439469023, 1916619813, 1016512287, 399964331,
            164435747, 739864308, 1122029250, 280819636,
            2070745891, 305242217, 547008459, 896620712,
            176326087, 1392204666, 79734454, 229638962,
        ),
        "codes": (
            23460683, 18100656, 348165691, 221360164,
            18708143, 375339027, 248190639, 60251174,
            241635925, 191289935, 828960516, 77101018,
            16246437, 675004004, 28941031, 55977864,
            133752754, 254009689, 471907539, 61300725,
            49146447, 272943049, 46489043, 454110405,
            59423424, 34832596, 17371482, 100445719,
            407318746, 396948873, 110697826, 339626795,
            19285262, 108261233, 49942340, 22994040,
            86272038, 182259157, 280803124, 378590010,
            622615226, 320152458, 306747707, 737527169,
            171290104, 674810607, 376742985, 42531705,
            94646438, 36269517, 150724827, 115568160,
            452164306, 166606060, 166906911, 223690424,
            139084425, 10221005, 559864944, 328176692,
            534906829, 23583961, 214775884, 454141842,
        ),
        "single": (
            3792107281, 4205407597, 1053721249, 3841753485,
            3188527366, 99054640, 734995391, 1640174722,
            1553485335, 3782136093, 1977227228, 2472048866,
            1237643953, 3259056367, 1867364907, 4205324017,
            1086099126, 910313289, 3378364820, 1557798043,
            3044983002, 2719973591, 1571566599, 3085505162,
            2246726813, 961513673, 4167557608, 4288173799,
            2628293450, 4198952862, 513381892, 3573902202,
            3208966432, 538952892, 1174640831, 210503753,
            2414839897, 2110866076, 3135497911, 2968275885,
            2969581986, 3223767536, 3458203560, 1252619416,
            4091829530, 1894005453, 2362291839, 4251191877,
            707237727, 3074247974, 2443113739, 1751995141,
            3024371604, 566730814, 3427757580, 1223391489,
            1023889407, 3580837055, 182319082, 1226090655,
            3688823499, 3559725023, 3853515681, 4127638202,
        ),
    }

    @pytest.mark.parametrize("name", sorted(COLUMNS))
    def test_signature_pinned(self, name):
        hasher = MinHasher.create(num_perm=64, seed=7)
        values = self.COLUMNS[name]
        assert signature_of_values(values, hasher) == self.GOLDEN[name]
        assert naive_signature(values, hasher) == self.GOLDEN[name]


class TestLshIndex:
    def test_near_duplicates_bucketed_together(self):
        hasher = MinHasher.create(num_perm=128)
        index = LshIndex(hasher=hasher, bands=32)
        base = [f"v{i}" for i in range(200)]
        index.add(0, base)
        index.add(1, base[:195] + [f"x{i}" for i in range(5)])
        index.add(2, [f"z{i}" for i in range(200)])
        pairs = index.candidate_pairs()
        assert (0, 1) in pairs
        assert (0, 2) not in pairs and (1, 2) not in pairs


class TestApproximateSearch:
    def test_recall_against_exact(self):
        shared = [f"v{i}" for i in range(60)]
        tables = []
        for i in range(5):
            tables.append(
                wrap(
                    Table(f"t{i}", [Column("a", list(shared))]),
                    resource=f"r{i}",
                )
            )
        tables.append(
            wrap(
                Table("odd", [Column("a", [f"o{i}" for i in range(60)])]),
                resource="odd",
            )
        )
        profiles, _ = build_profiles(tables)
        approx = approximate_joinable_pairs(profiles, threshold=0.8)
        found = {(l, r) for l, r, _ in approx}
        expected = {(i, j) for i in range(5) for j in range(i + 1, 5)}
        assert expected <= found
        assert all("odd" not in (profiles[l].column_name,) for l, r, _ in approx)
