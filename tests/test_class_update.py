"""Tests for in-place class redeployment (update_class)."""

import pytest

from repro.errors import DeploymentError, UnknownClassError, ValidationError
from repro.model.pkg import loads_package

V1 = """
classes:
  - name: Doc
    keySpecs:
      - { name: text, type: STR, default: "" }
    functions:
      - { name: process, image: doc/v1 }
"""

V2_ADDITIVE = """
classes:
  - name: Doc
    keySpecs:
      - { name: text, type: STR, default: "" }
      - { name: words, type: INT, default: 0 }
    functions:
      - { name: process, image: doc/v2 }
      - { name: summarize, image: doc/v2 }
"""

V2_DROPS_KEY = """
classes:
  - name: Doc
    functions:
      - { name: process, image: doc/v2 }
"""

V2_RETYPES_KEY = """
classes:
  - name: Doc
    keySpecs:
      - { name: text, type: INT }
    functions:
      - { name: process, image: doc/v2 }
"""


@pytest.fixture
def versioned_platform(bare_platform):
    platform = bare_platform

    @platform.function("doc/v1")
    def process_v1(ctx):
        ctx.state["text"] = str(ctx.payload.get("text", "")).lower()
        return {"processed_by": "v1"}

    @platform.function("doc/v2")
    def process_v2(ctx):
        text = str(ctx.payload.get("text", ctx.state.get("text") or ""))
        ctx.state["text"] = text.upper()
        if "words" in [k.name for k in platform.crm.resolved("Doc").state]:
            ctx.state["words"] = len(text.split())
        return {"processed_by": "v2"}

    platform.deploy(V1)
    return platform


def resolved_of(yaml_text):
    return loads_package(yaml_text).resolved_classes()["Doc"]


class TestUpdateClass:
    def test_new_image_takes_effect(self, versioned_platform):
        platform = versioned_platform
        obj = platform.new_object("Doc")
        assert platform.invoke(obj, "process", {"text": "Hi"}).output == {
            "processed_by": "v1"
        }
        platform.crm.update_class(resolved_of(V2_ADDITIVE))
        assert platform.invoke(obj, "process", {"text": "Hi"}).output == {
            "processed_by": "v2"
        }

    def test_state_survives_update(self, versioned_platform):
        platform = versioned_platform
        obj = platform.new_object("Doc")
        platform.invoke(obj, "process", {"text": "KeepMe"})
        version_before = platform.get_object(obj)["version"]
        platform.crm.update_class(resolved_of(V2_ADDITIVE))
        record = platform.get_object(obj)
        assert record["state"]["text"] == "keepme"  # v1's lowercase output
        assert record["version"] == version_before

    def test_added_method_available(self, versioned_platform):
        platform = versioned_platform
        platform.crm.update_class(resolved_of(V2_ADDITIVE))
        obj = platform.new_object("Doc")
        assert platform.invoke(obj, "summarize", {"text": "a b c"}).ok

    def test_added_state_key_usable(self, versioned_platform):
        platform = versioned_platform
        platform.crm.update_class(resolved_of(V2_ADDITIVE))
        obj = platform.new_object("Doc")
        platform.invoke(obj, "process", {"text": "one two three"})
        assert platform.get_object(obj)["state"]["words"] == 3

    def test_dropping_key_rejected(self, versioned_platform):
        with pytest.raises(DeploymentError, match="drops state key"):
            versioned_platform.crm.update_class(resolved_of(V2_DROPS_KEY))

    def test_retyping_key_rejected(self, versioned_platform):
        with pytest.raises(DeploymentError, match="changes the type"):
            versioned_platform.crm.update_class(resolved_of(V2_RETYPES_KEY))

    def test_rejected_update_leaves_runtime_intact(self, versioned_platform):
        platform = versioned_platform
        obj = platform.new_object("Doc")
        with pytest.raises(DeploymentError):
            platform.crm.update_class(resolved_of(V2_DROPS_KEY))
        assert platform.invoke(obj, "process", {"text": "Still"}).output == {
            "processed_by": "v1"
        }

    @pytest.mark.parametrize(
        "engine, qos",
        [("knative", ""), ("deployment", "    qos: { latency: 50 }\n")],
        ids=["knative", "latency"],
    )
    def test_failed_provision_keeps_previous_services(self, bare_platform, engine, qos):
        platform = bare_platform
        platform.register_image("doc/v1", lambda ctx: {"processed_by": "v1"})
        platform.deploy(V1.replace("    functions:", qos + "    functions:"))
        assert platform.crm.runtime("Doc").engine_name == engine
        engine = getattr(platform.crm, engine)
        obj = platform.new_object("Doc")
        unregistered = V1.replace("doc/v1", "doc/missing")
        with pytest.raises(ValidationError, match="not registered"):
            platform.crm.update_class(resolved_of(unregistered))
        assert platform.invoke(obj, "process").output == {"processed_by": "v1"}
        assert engine.service_names == ("Doc.process",)
        assert platform.crm.runtime("Doc").services["process"] is engine.service(
            "Doc.process"
        )

    def test_update_unknown_class_rejected(self, versioned_platform):
        other = loads_package(
            "classes:\n  - name: Other\n"
        ).resolved_classes()["Other"]
        with pytest.raises(UnknownClassError):
            versioned_platform.crm.update_class(other)

    def test_update_can_switch_template(self, versioned_platform):
        from repro.crm.template import ClassRuntimeTemplate, RuntimeConfig

        platform = versioned_platform
        assert platform.crm.runtime("Doc").engine_name == "knative"
        bypass = ClassRuntimeTemplate(
            name="bypass", config=RuntimeConfig(engine="deployment", min_scale_override=2)
        )
        runtime = platform.crm.update_class(resolved_of(V2_ADDITIVE), template=bypass)
        assert runtime.engine_name == "deployment"
        obj = platform.new_object("Doc")
        assert platform.invoke(obj, "process", {"text": "x"}).ok
