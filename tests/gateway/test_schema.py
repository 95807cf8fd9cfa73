"""Edge schema validation: fuzz/reject cases and reply envelopes.

The gateway's contract is the *schema*, so these tests pin both directions:
hostile/malformed payloads are rejected with field-level errors (all of
them collected in one round trip), and every reply envelope is strict JSON
carrying ``schema_version``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    ExecutionPolicy,
    SearchEngine,
    SearchRequest,
    available_methods,
    route,
)
from repro.engine.request import ENGINE_VALUES, WANTS_VALUES
from repro.gateway.schema import (
    CONTENT_TYPE_JSON,
    MAX_SCHEMA_N_ITEMS,
    MAX_SCHEMA_TARGETS,
    SCHEMA_VERSION,
    SchemaError,
    decode_submit,
    dumps,
    encode_error,
    encode_methods,
    encode_report,
    loads,
)

pytestmark = pytest.mark.gateway


def fields_of(exc: SchemaError) -> set:
    return {e["field"] for e in exc.errors}


class TestDecodeRejects:
    def test_non_object_body(self):
        with pytest.raises(SchemaError):
            decode_submit([1, 2, 3])

    def test_oversized_n_items(self):
        with pytest.raises(SchemaError) as err:
            decode_submit({"n_items": MAX_SCHEMA_N_ITEMS * 2, "n_blocks": 2})
        assert fields_of(err.value) == {"n_items"}

    def test_bad_dtype(self):
        with pytest.raises(SchemaError) as err:
            decode_submit({"n_items": 64, "n_blocks": 8, "dtype": "float16"})
        assert fields_of(err.value) == {"dtype"}

    def test_unknown_method(self):
        with pytest.raises(SchemaError) as err:
            decode_submit({"n_items": 64, "n_blocks": 8, "method": "nope"})
        assert fields_of(err.value) == {"method"}
        # The message names the live registry so clients can self-correct.
        assert "grk" in err.value.errors[0]["message"]

    def test_unknown_field(self):
        # A removed field is as unknown as one that never existed, even
        # with a value it once accepted.
        for field, value in (("bogus", 1), ("kernel_backend", "numpy")):
            with pytest.raises(SchemaError) as err:
                decode_submit({"n_items": 64, "n_blocks": 8, field: value})
            assert err.value.errors == [
                {"field": field, "message": "unknown field"}
            ]

    def test_all_errors_collected_in_one_reject(self):
        with pytest.raises(SchemaError) as err:
            decode_submit({
                "n_items": 5, "n_blocks": 3, "dtype": "float16",
                "method": "nope", "epsilon": 2.0, "extra": True,
            })
        assert fields_of(err.value) == {
            "n_blocks", "dtype", "method", "epsilon", "extra",
        }

    def test_wrong_schema_version_pin(self):
        with pytest.raises(SchemaError) as err:
            decode_submit({"schema_version": 99, "n_items": 64, "n_blocks": 8})
        assert "schema_version" in fields_of(err.value)

    def test_target_out_of_range(self):
        with pytest.raises(SchemaError) as err:
            decode_submit({"n_items": 64, "n_blocks": 8, "target": 64})
        assert fields_of(err.value) == {"target"}

    def test_targets_rejected_on_search_endpoint(self):
        with pytest.raises(SchemaError) as err:
            decode_submit({"n_items": 64, "n_blocks": 8, "targets": [1]})
        assert fields_of(err.value) == {"targets"}

    def test_targets_bound(self):
        with pytest.raises(SchemaError) as err:
            decode_submit(
                {"n_items": MAX_SCHEMA_N_ITEMS, "n_blocks": 1,
                 "targets": list(range(MAX_SCHEMA_TARGETS + 1))},
                batch=True,
            )
        assert fields_of(err.value) == {"targets"}

    def test_batch_flag_conflicts_with_endpoint(self):
        with pytest.raises(SchemaError) as err:
            decode_submit({"n_items": 64, "n_blocks": 8, "batch": True})
        assert fields_of(err.value) == {"batch"}

    def test_booleans_are_not_integers(self):
        with pytest.raises(SchemaError) as err:
            decode_submit({"n_items": True, "n_blocks": 8})
        assert "n_items" in fields_of(err.value)

    def test_non_scalar_options(self):
        with pytest.raises(SchemaError) as err:
            decode_submit({"n_items": 64, "n_blocks": 8,
                           "options": {"trials": [1, 2]}})
        assert fields_of(err.value) == {"options.trials"}


    def test_numbers_beyond_float_range_are_field_errors(self):
        # 10**400 is valid JSON but no float.
        with pytest.raises(SchemaError) as err:
            decode_submit({"n_items": 64, "n_blocks": 8,
                           "epsilon": 10**400, "timeout": 10**400})
        assert fields_of(err.value) == {"epsilon", "timeout"}

    def test_simulation_bound_follows_the_route(self):
        # An option no model covers sends an auto probability request to
        # the simulate tier, so it gets the simulation bound.
        body = {"n_items": 1 << 40, "n_blocks": 4, "target": 0,
                "wants": "probability"}
        assert decode_submit(body).request.n_items == 1 << 40
        with pytest.raises(SchemaError) as err:
            decode_submit({**body, "options": {"foo": 1}})
        assert err.value.errors[0]["field"] == "n_items"
        assert "simulation bound" in err.value.errors[0]["message"]

    def test_simulation_bound_waits_for_valid_fields(self):
        # The bound reads the route, which needs a valid request, so it
        # does not join the first round of field errors.
        with pytest.raises(SchemaError) as err:
            decode_submit({"n_items": 1 << 40, "n_blocks": 4,
                           "dtype": "float16"})
        assert fields_of(err.value) == {"dtype"}


#: Any JSON scalar, including the non-finite floats that ``json.loads``
#: accepts.  JSON integers are unbounded, and hypothesis's own integers
#: never reach float range (2**1024), so those past it get a branch.
JSON_SCALARS = (
    st.none() | st.booleans() | st.text(max_size=8) | st.integers()
    | st.builds(lambda sign, bits: sign * 2**bits,
                st.sampled_from([1, -1]), st.integers(1024, 1400))
    | st.floats(allow_nan=True, allow_infinity=True)
)
#: Any JSON value.  The scalars get their own branch: a recursive strategy
#: alone draws containers nearly every time.
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

VALID_BODY = {
    "schema_version": SCHEMA_VERSION, "n_items": 64, "n_blocks": 4,
    "method": "grk", "backend": "kernels", "epsilon": 0.25, "target": 5,
    "seed": 3, "dtype": "complex128", "row_threads": "auto",
    "options": {}, "timeout": 5.0, "wants": "report", "engine": "auto",
}


class TestDecodeProperties:
    @settings(max_examples=500, deadline=None)
    @given(
        field=st.sampled_from(sorted(VALID_BODY) + ["targets", "batch",
                                                    "bogus"]),
        value=JSON_VALUES,
        batch=st.booleans(),
    )
    def test_any_one_field_decodes_or_is_a_schema_error(self, field, value,
                                                        batch):
        body = dict(VALID_BODY)
        if batch:
            del body["target"]
            body["targets"] = [1, 2]
        body[field] = value
        try:
            decode_submit(body, batch=batch)
        except SchemaError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        method=st.sampled_from(available_methods()),
        wants=st.sampled_from(WANTS_VALUES),
        engine=st.sampled_from(ENGINE_VALUES),
        options=st.dictionaries(
            st.sampled_from(["iterations", "left_out_block", "exact",
                             "strategy", "foo"]),
            st.integers(0, 3) | st.booleans()
            | st.sampled_from(["randomized", "deterministic"]),
            max_size=2,
        ),
        n_items=st.integers(1, 63).map(lambda e: 1 << e)
        | st.integers(2, 1 << 63),
        n_blocks=st.sampled_from([1, 2, 4, 8]),
    )
    def test_every_request_that_simulates_is_within_the_bound(
            self, method, wants, engine, options, n_items, n_blocks):
        try:
            decoded = decode_submit({
                "n_items": n_items, "n_blocks": n_blocks, "target": 0,
                "method": method, "wants": wants, "engine": engine,
                "options": options,
            })
        except SchemaError:
            return
        try:
            tier = route(decoded.request).tier
        except ValueError:
            return  # the engine refuses it before any state exists
        if tier == "simulate":
            assert n_items <= MAX_SCHEMA_N_ITEMS


class TestDecodeAccepts:
    def test_minimal_search(self):
        decoded = decode_submit({"n_items": 64, "n_blocks": 8})
        assert decoded.batch is False
        assert decoded.targets is None
        assert decoded.timeout is None
        assert decoded.request == SearchRequest(n_items=64, n_blocks=8)

    def test_full_search_matches_direct_construction(self):
        decoded = decode_submit({
            "schema_version": SCHEMA_VERSION,
            "n_items": 256, "n_blocks": 16, "method": "grk",
            "epsilon": 0.25, "target": 7, "seed": 42,
            "dtype": "complex64", "row_threads": 2, "timeout": 9.5,
        })
        assert decoded.timeout == 9.5
        assert decoded.request == SearchRequest(
            n_items=256, n_blocks=16, method="grk", epsilon=0.25, target=7,
            rng=42,
            policy=ExecutionPolicy(dtype="complex64", row_threads=2),
        )

    def test_batch_with_targets(self):
        decoded = decode_submit(
            {"n_items": 64, "n_blocks": 8, "targets": [0, 9, 63]},
            batch=True,
        )
        assert decoded.batch is True
        assert decoded.targets == [0, 9, 63]


class TestReplyEnvelopes:
    def test_search_report_encodes_to_strict_json(self):
        report = SearchEngine().search(
            SearchRequest(n_items=64, n_blocks=8, target=5)
        )
        body = encode_report(report)
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["kind"] == "search"
        assert body["block_guess"] == report.block_guess
        round_tripped = json.loads(dumps(body, CONTENT_TYPE_JSON))
        assert round_tripped == body

    def test_batch_report_encodes_to_strict_json(self):
        report = SearchEngine().search_batch(
            SearchRequest(n_items=16, n_blocks=4), targets=[0, 5, 15]
        )
        body = encode_report(report)
        assert body["kind"] == "batch"
        assert body["n_rows"] == 3
        assert body["block_guesses"] == [0, 1, 3]
        assert json.loads(dumps(body)) == body
        assert "raw" not in body

    def test_error_envelope(self):
        body = encode_error("rate-limited", "slow down", retry_after=2.5)
        assert body["kind"] == "error"
        assert body["error"] == "rate-limited"
        assert body["retry_after_s"] == 2.5
        assert json.loads(dumps(body)) == body

    def test_methods_envelope_lists_registry(self):
        body = encode_methods()
        assert set(body) == {"schema_version", "kind", "methods"}
        names = [m["name"] for m in body["methods"]]
        assert "grk" in names
        assert json.loads(dumps(body)) == body


class TestBodyCodecs:
    def test_loads_rejects_garbage(self):
        with pytest.raises(SchemaError):
            loads(b"\x80\x81 not json")

    def test_dumps_rejects_nan(self):
        with pytest.raises(ValueError):
            dumps({"x": float("nan")})
