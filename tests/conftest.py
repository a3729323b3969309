import pytest
from hypothesis import settings

from mvladders.adders import all_single_stage_designs
from mvladders.analysis import TimingModel

# Every run draws the same examples, so a property test that passes once
# passes on every run, and one that fails names the same example each time.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def model():
    return TimingModel.default()


@pytest.fixture(scope="session")
def single_stage_designs():
    return all_single_stage_designs()


@pytest.fixture(scope="session")
def designs_by_label(single_stage_designs):
    return {d.label: d for d in single_stage_designs}
