"""Shared test setup: the oracles' precondition asserts are rewritten by
pytest, as the tests' own are, so they still run under python -O."""

import pytest

pytest.register_assert_rewrite("oracles")
