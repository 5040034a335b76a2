"""hash-determinism: hashing functions must canonicalise their input."""

import pytest

from repro.analysis.rules.determinism import HashDeterminismRule


@pytest.fixture
def determinism(analyze):
    def run(source, **kwargs):
        return analyze(HashDeterminismRule(), source, **kwargs)

    return run


def test_unsorted_dumps_in_hash_function_flagged(determinism):
    report = determinism(
        """\
        import hashlib, json

        def fingerprint(payload):
            blob = json.dumps(payload)
            return hashlib.sha256(blob.encode()).hexdigest()
        """
    )
    assert len(report.new) == 1
    assert "sort_keys" in report.new[0].message


def test_sorted_dumps_clean(determinism):
    report = determinism(
        """\
        import hashlib, json

        def fingerprint(payload):
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(blob.encode()).hexdigest()
        """
    )
    assert report.new == []


@pytest.mark.parametrize(
    "call",
    ["time.time()", "time.time_ns()", "uuid.uuid4()", "random.random()",
     "os.getpid()", "os.urandom(8)", "id(payload)", "hash(payload)",
     "datetime.now()"],
)
def test_nondeterministic_sources_flagged(determinism, call):
    report = determinism(
        f"""\
        import hashlib, json, time, uuid, random, os
        from datetime import datetime

        def fingerprint(payload):
            salt = {call}
            return hashlib.sha256(bytes([payload, salt])).hexdigest()
        """
    )
    assert len(report.new) == 1, call


@pytest.mark.parametrize("builtin", ["repr", "str"])
def test_text_builtin_fed_to_hashlib_flagged(determinism, builtin):
    report = determinism(
        f"""\
        import hashlib

        def fingerprint(payload):
            return hashlib.sha256({builtin}(payload).encode()).hexdigest()
        """
    )
    assert len(report.new) == 1
    assert f"builtin {builtin}()" in report.new[0].message


def test_text_builtin_outside_hash_function_clean(determinism):
    report = determinism(
        """\
        def label(payload):
            return repr(payload) + str(len(payload))
        """
    )
    assert report.new == []


def test_scoped_to_hashing_functions(determinism):
    # time.time() outside a hashing function is none of this rule's
    # business.
    report = determinism(
        """\
        import time

        def now():
            return time.time()
        """
    )
    assert report.new == []


def test_unsorted_dumps_outside_hash_function_clean(determinism):
    report = determinism(
        """\
        import json

        def pretty(payload):
            return json.dumps(payload, indent=2)
        """
    )
    assert report.new == []


def test_suppression(determinism):
    report = determinism(
        """\
        import hashlib, os

        def token():
            return hashlib.sha256(os.urandom(16)).hexdigest()  # repro: ignore[hash-determinism] nonce on purpose
        """
    )
    assert report.new == [] and len(report.suppressed) == 1
