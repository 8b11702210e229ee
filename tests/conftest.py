import pytest
from hypothesis import strategies as st

from scenequery.scene_model import ObjectNode, SceneGraph, Vec3

SAMPLE_SCENE_JSON = """\
[
    {
        "id": 0,
        "bbox_extent": [0.7,0.6,0.4],
        "bbox_center": [-4.2,-2.0,0.1],
        "object_tag": "vase",
        "caption": "The central object in this image is a vase filled with green leaves.",
        "color": "silver",
        "material": "metal/silver"
    },
    {
        "id": 5,
        "bbox_extent": [0.9,0.7,0.2],
        "bbox_center": [-4.5,-1.6,0.1],
        "object_tag": "mirror",
        "caption": "The central object in this image is a mirror.",
        "color": "brown",
        "material": "wood"
    }
]
"""


@pytest.fixture(scope="session", autouse=True)
def text_strategy_tables():
    """Build the tables `st.text()` draws from before any test runs.

    Without a `.hypothesis/` directory to load them from, building them
    takes seconds, and Hypothesis would count that against the input
    generation of the first property that draws text, failing it with a
    FailedHealthCheck when its file runs alone.
    """
    st.text().validate()


@pytest.fixture
def sample_scene_json():
    return SAMPLE_SCENE_JSON


@pytest.fixture
def couch():
    return ObjectNode(
        id=28,
        bbox_extent=Vec3(1.0, 0.9, 0.6),
        bbox_center=Vec3(2.8, 2.3, -1.2),
        object_tag="white couch",
    )


@pytest.fixture
def pillow():
    return ObjectNode(
        id=27,
        bbox_extent=Vec3(0.7, 0.6, 0.3),
        bbox_center=Vec3(2.9, 2.5, -0.8),
        object_tag="pillow",
    )


@pytest.fixture
def couch_pillow_scene(couch, pillow):
    return SceneGraph(nodes=(pillow, couch))
