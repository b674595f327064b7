"""Canonical cache keys: the content addresses of the result store.

A key is the SHA-256 of the :func:`repro.common.canonical_json` form of
the *key material*: everything that determines an experiment's output
bits — ``(experiment_id, RunProfile, seed, optional WBChannelConfig
fingerprint, optional entry-point override)`` — plus two explicit schema
versions:

* ``key_schema_version`` — the layout of the key material itself;
* ``result_schema_version`` — the layout of the stored
  :class:`~repro.experiments.base.ExperimentResult` JSON.

Bumping either retires every previously stored blob (the addresses
change), which is exactly the wanted behaviour: a schema change must
never let an old blob masquerade as a fresh result.

Registered experiments derive all their internal configuration
deterministically from ``(profile, seed)``, so those three fields plus
the schema stamps are a complete content address for them.  Callers
memoising *direct channel runs* additionally fold the
:class:`~repro.channels.wb.WBChannelConfig` in through
:func:`wb_config_fingerprint`, which refuses configs carrying live
injected objects (decoders, hierarchies, noise models) — those cannot be
canonicalised, and silently colliding on them would serve wrong results.

Declarative scenario jobs (``repro.scenario``) fold the complete
canonical spec dict into the material via ``scenario=``: two scenario
submissions dedup onto one computation exactly when their specs
canonicalise identically, regardless of JSON formatting or field order.
The spec carries its own ``schema_version``, so a spec-layout change
retires scenario keys without touching experiment keys.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.common.canonical import canonical_digest, canonical_json
from repro.common.errors import ConfigurationError
from repro.experiments.base import SCHEMA_VERSION as RESULT_SCHEMA_VERSION
from repro.experiments.profiles import ProfileLike, resolve_profile

#: Bump on any change to the key-material layout below.
#: v2: added the ``scenario`` field (declarative scenario jobs).
#: v3: the profile no longer carries ``engine`` (one cache core remains).
KEY_SCHEMA_VERSION = 3

#: WBChannelConfig fields that are declarative data (canonicalisable).
_WB_PLAIN_FIELDS = (
    "period_cycles",
    "message_bits",
    "message",
    "preamble",
    "target_set",
    "replacement_set_size",
    "receiver_phase",
    "alignment_slack_symbols",
    "start_time",
    "seed",
    "hierarchy_overrides",
    "sender_ensure_resident",
    "calibration_repetitions",
)

#: WBChannelConfig fields holding live objects a key cannot represent.
_WB_LIVE_FIELDS = ("scheduler_noise", "tsc", "hierarchy_factory", "decoder")


def wb_config_fingerprint(config) -> Dict[str, object]:
    """Canonicalisable fingerprint of a ``WBChannelConfig``.

    Covers every declarative field, the codec (by its stable ``repr``)
    and the fault spec (a frozen dataclass of plain numbers).  Raises
    :class:`~repro.common.errors.ConfigurationError` when the config
    carries live injected objects — two configs differing only in an
    injected decoder would otherwise collide on one key.
    """
    live = [name for name in _WB_LIVE_FIELDS if getattr(config, name) is not None]
    if live:
        raise ConfigurationError(
            f"WBChannelConfig with injected live object(s) "
            f"{', '.join(live)} cannot be fingerprinted for a cache key; "
            f"construct the config declaratively instead"
        )
    fingerprint: Dict[str, object] = {
        name: getattr(config, name) for name in _WB_PLAIN_FIELDS
    }
    fingerprint["message"] = (
        None if config.message is None else list(config.message)
    )
    fingerprint["preamble"] = list(config.preamble)
    fingerprint["codec"] = repr(config.codec)
    fingerprint["faults"] = (
        None if config.faults is None else dataclasses.asdict(config.faults)
    )
    # Prove the fingerprint canonicalises now, with a config-specific
    # message, rather than letting cache_key fail later with a vague one.
    try:
        canonical_json(fingerprint)
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"WBChannelConfig does not fingerprint to canonical JSON "
            f"(non-plain hierarchy_overrides?): {exc}"
        ) from exc
    return fingerprint


def key_material(
    experiment_id: str,
    profile: ProfileLike = None,
    seed: int = 0,
    wb_config=None,
    entry_point: Optional[str] = None,
    scenario: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The versioned dict a cache key hashes; stable across processes.

    ``scenario`` is the canonical ``ScenarioSpec.to_dict()`` payload of a
    declarative scenario job (``None`` for registered experiments).
    """
    resolved = resolve_profile(profile)
    return {
        "key_schema_version": KEY_SCHEMA_VERSION,
        "result_schema_version": RESULT_SCHEMA_VERSION,
        "experiment_id": experiment_id,
        "profile": resolved.to_dict(),
        "seed": seed,
        "wb_config": (
            None if wb_config is None else wb_config_fingerprint(wb_config)
        ),
        "entry_point": entry_point,
        "scenario": scenario,
    }


def cache_key(
    experiment_id: str,
    profile: ProfileLike = None,
    seed: int = 0,
    wb_config=None,
    entry_point: Optional[str] = None,
    scenario: Optional[Dict[str, object]] = None,
) -> str:
    """Content address of one experiment configuration (SHA-256 hex)."""
    return canonical_digest(
        key_material(
            experiment_id,
            profile=profile,
            seed=seed,
            wb_config=wb_config,
            entry_point=entry_point,
            scenario=scenario,
        ),
        require_version=True,
    )
