"""Unit tests for advise-request validation and canonicalization."""

import pytest

from repro.errors import ValidationError
from repro.serve.schemas import (
    AdviseRequest,
    canonical_frequencies,
    canonical_schemes,
    request_key,
    validate_advise_request,
)


def _validate(doc, **kwargs):
    return validate_advise_request(doc, **kwargs)


def _rejection_path(doc, **kwargs) -> str:
    with pytest.raises(ValidationError) as exc_info:
        validate_advise_request(doc, **kwargs)
    return exc_info.value.path


class TestDefaultsAndCanonicalForm:
    def test_empty_document_fills_every_default(self):
        req = _validate({})
        assert req.kernel == "matmul"
        assert req.size_exp == 10
        assert req.schemes == ("ho", "mo", "rm")
        assert req.placement == "8s"
        assert req.measure == "model"
        assert req.refine == "auto"
        assert req.objective == "energy"
        assert req.deadline_s is None
        assert len(req.frequencies) > 0

    def test_canonical_round_trip_is_identity(self):
        req = _validate(
            {"schemes": ["mo", "ho", "mo"], "frequencies": [2.6, "ondemand", 1.8]}
        )
        assert req.schemes == ("ho", "mo")
        assert req.frequencies == (1.8, 2.6, "ondemand")
        assert _validate(req.to_dict()) == req

    def test_configs_cross_schemes_and_frequencies(self):
        req = _validate({"schemes": ["ho", "mo"], "frequencies": [1.8, 2.6]})
        keys = [c.key for c in req.configs]
        assert len(keys) == 4 == len(set(keys))

    def test_ints_accepted_as_ghz(self):
        req = _validate({"frequencies": [2]})
        assert req.frequencies == (2.0,)


class TestRejectionPaths:
    @pytest.mark.parametrize(
        ("doc", "path"),
        [
            ([1], "$"),
            ("x", "$"),
            ({"bogus": 1}, "bogus"),
            ({"kernel": "fft"}, "kernel"),
            ({"kernel": 7}, "kernel"),
            ({"size_exp": "big"}, "size_exp"),
            ({"size_exp": True}, "size_exp"),
            ({"size_exp": 99}, "size_exp"),
            ({"schemes": "mo"}, "schemes"),
            ({"schemes": []}, "schemes"),
            ({"schemes": ["mo", 3]}, "schemes[1]"),
            ({"schemes": ["mo", "zorder"]}, "schemes[1]"),
            ({"placement": "9q"}, "placement"),
            ({"placement": 8}, "placement"),
            ({"frequencies": 2.6}, "frequencies"),
            ({"frequencies": []}, "frequencies"),
            ({"frequencies": ["performance"]}, "frequencies[0]"),
            ({"frequencies": [1.8, None]}, "frequencies[1]"),
            ({"frequencies": [99.0]}, "frequencies[0]"),
            ({"measure": "hardware"}, "measure"),
            ({"refine": "never"}, "refine"),
            ({"objective": "power"}, "objective"),
            ({"deadline_s": "fast"}, "deadline_s"),
            ({"deadline_s": 0}, "deadline_s"),
            ({"deadline_s": -1}, "deadline_s"),
        ],
    )
    def test_every_rejection_carries_its_field_path(self, doc, path):
        assert _rejection_path(doc) == path

    def test_known_schemes_registry_gates_candidates(self):
        assert _validate({"schemes": ["mo"]}, known_schemes=("mo",))
        assert _rejection_path(
            {"schemes": ["rm"]}, known_schemes=("mo",)
        ) == "schemes[0]"

    def test_deadline_capped_at_service_ceiling(self):
        req = _validate({"deadline_s": 120.0}, max_deadline_s=30.0)
        assert req.deadline_s == 30.0
        req = _validate({"deadline_s": 5.0}, max_deadline_s=30.0)
        assert req.deadline_s == 5.0


class TestRequestKey:
    def test_scheme_order_does_not_split_keys(self):
        a = _validate({"schemes": ["ho", "mo"]})
        b = _validate({"schemes": ["mo", "ho", "ho"]})
        assert request_key(a, "fp") == request_key(b, "fp")

    def test_frequency_order_does_not_split_keys(self):
        a = _validate({"frequencies": [1.8, 2.6, "ondemand"]})
        b = _validate({"frequencies": ["ondemand", 2.6, 1.8, 2.6]})
        assert request_key(a, "fp") == request_key(b, "fp")

    def test_calibration_fingerprint_is_part_of_the_key(self):
        req = _validate({})
        assert request_key(req, "fp-a") != request_key(req, "fp-b")

    def test_execution_hints_are_excluded(self):
        base = _validate({})
        with_hints = _validate({"deadline_s": 2.0, "refine": "analytic"})
        assert request_key(base, "fp") == request_key(with_hints, "fp")

    def test_refine_splits_keys_for_non_model_measures(self):
        # Under measure="sampled" refine decides the evaluation semantics
        # (pool-sampled vs analytic stand-in): a sweep request must not
        # coalesce onto a concurrent analytic job, or vice versa.
        sweep = _validate({"measure": "sampled", "refine": "sweep"})
        analytic = _validate({"measure": "sampled", "refine": "analytic"})
        assert request_key(sweep, "fp") != request_key(analytic, "fp")

    def test_answer_shaping_fields_are_included(self):
        assert request_key(_validate({}), "fp") != request_key(
            _validate({"objective": "edp"}), "fp"
        )
        assert request_key(_validate({}), "fp") != request_key(
            _validate({"size_exp": 11}), "fp"
        )


class TestCanonicalHelpers:
    def test_canonical_schemes_sorts_and_dedupes(self):
        assert canonical_schemes(["mo", "ho", "mo"]) == ("ho", "mo")

    def test_canonical_frequencies_numeric_then_governors(self):
        assert canonical_frequencies(["ondemand", 2.6, 1.8, 2.6]) == (
            1.8,
            2.6,
            "ondemand",
        )

    def test_frequencies_of_one_sample_point_merge(self):
        # Both name the 100MHz sample point; kept apart, a request fanned
        # out to two configs with one key.
        assert canonical_frequencies([0.10000000000000002, 0.1]) == (0.1,)
        req = validate_advise_request(
            {"schemes": ["mo"], "frequencies": [0.1, 0.10000000000000002]}
        )
        assert [c.key for c in req.configs] == ["mo-10-100MHz-8s"]

    def test_to_dict_and_back_preserves_frozen_dataclass(self):
        req = AdviseRequest(
            kernel="matmul",
            size_exp=10,
            schemes=("ho",),
            placement="8s",
            frequencies=(1.8,),
            measure="model",
            refine="auto",
            objective="energy",
            deadline_s=None,
        )
        assert validate_advise_request(req.to_dict()) == req
