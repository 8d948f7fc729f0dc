"""Deterministic synthetic generator of labeled benign/ransomware streams.

Every event source (each benign worker, each attack entity, each exfil
channel) draws from its own RNG substream keyed by (scenario seed, source
name), and maskable draws are consumed whether or not the mask fires. Two
consequences the tests rely on: a scenario+seed always produces a
byte-identical stream, and sweeps that vary one profile field against a
common seed keep every other source's events literally unchanged (for the
obfuscation sweep the per-event mask decisions are nested: raising the
level only masks more).

Benign archetypes (workers are heterogeneous and sessions churn through
the run, so benign cold starts happen everywhere, not just at t=0):
  office  sparse bursts of document edits with per-filetype entropy,
          autosave renames, optional mail traffic
  build   job sessions that fetch dependencies then storm-write outputs,
          some incrementally rewriting artifacts in place (false-positive
          stressor on rates and renames)
  backup  copy / in-place verify / direct-to-cloud upload modes with
          enumeration scans and offsite transfer (false-positive stressor
          on volume, egress, and write-back patterns)

An attack entity opens its exfil channel (which reads what it steals),
then per victim file emits read -> write (ciphertext entropy, same path)
-> rename (to the family extension) at its encryption speed, gated by
on/off duty cycles, until the victim corpus is exhausted. Obfuscation o
independently masks each telltale with probability o: write entropy is
redrawn from the file's natural distribution, the rename is suppressed,
the write is staged to a decoy path, the exfil burst shrinks to
benign-sized transfers. Physical ceilings couple speed to stealth: past
the crypto throughput ceiling files are only partially encrypted, extreme
cadences skip the rename ceremony, and the telemetry sensor thins
sustained floods.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass, field, fields
from importlib import resources as importlib_resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator

from .types import ConfigError, Event, EventKind, Truth, ZsdError

FILETYPES = ("docx", "xlsx", "pdf", "jpg", "exe")

# natural payload entropy (bits/byte) of each file type: compressed formats
# (jpg, and pdf to a degree) sit close to encrypted content, which is what
# makes them harder to tell apart from ciphertext
_EXT_ENTROPY = {"docx": 4.3, "xlsx": 4.1, "pdf": 6.3, "jpg": 7.4, "exe": 6.2}

_CYCLE_SECONDS = 8.0
_EXFIL_INTERVAL = 0.4

# attacker's sustained encryption throughput ceiling; when the configured
# file cadence outruns it, each file is only partially encrypted and the
# written payload's entropy is a mix of ciphertext and original content
_ENCRYPT_BYTES_PER_SEC = 2_000_000.0

# the victim corpus is finite: an attack goes silent (exfil aside) once it
# has touched every file, so faster campaigns are shorter bursts
_VICTIM_CORPUS_FILES = 900

# telemetry sensors rate-limit per-process event streams: a token bucket
# per entity absorbs ordinary bursts but thins sustained floods, so the
# observable event rate of any one process is capped
_SENSOR_RATE_PER_SEC = 60.0
_SENSOR_BURST = 400.0

# past this cadence the per-file rename ceremony is skipped to sustain
# throughput (speed-optimized operation); the skip fraction grows
# quadratically with overload, so extreme speeds drop ceremony almost
# entirely
_RENAME_OPS_PER_SEC = 8.0


# Box-Muller with a fixed two-draw budget (random.gauss uses rejection). The
# three helpers below each spell the transform out, so that a draw costs one
# call: u1 is floored at 1e-12 and the value is mean + sd * z.
def _box_muller_clamped(us: tuple[float, float], mean: float, sd: float) -> float:
    """Entropy from two uniforms drawn ahead, clamped to [0, 8]."""
    u1, u2 = us
    if u1 < 1e-12:
        u1 = 1e-12
    x = mean + sd * (math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2))
    x = x if x > 0.0 else 0.0
    return x if x < 8.0 else 8.0


def _entropy_clamped(rng: random.Random, mean: float, sd: float) -> float:
    u1 = rng.random()
    u2 = rng.random()
    if u1 < 1e-12:
        u1 = 1e-12
    x = mean + sd * (math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2))
    x = x if x > 0.0 else 0.0
    return x if x < 8.0 else 8.0


def _lognormal_bytes(rng: random.Random, mu: float, sigma: float) -> int:
    u1 = rng.random()
    u2 = rng.random()
    if u1 < 1e-12:
        u1 = 1e-12
    n = int(math.exp(mu + sigma * (math.sqrt(-2.0 * math.log(u1))
                                   * math.cos(2.0 * math.pi * u2))))
    return n if n > 1 else 1


@dataclass
class FamilyProfile:
    """Behavioral preset for one ransomware family."""

    name: str
    files_per_sec: float
    entropy_mean: float
    entropy_sd: float
    obfuscation: float
    intermittent_duty: float
    delay_start_s: float
    filetype_mix: dict[str, float]
    exfil_bytes_per_sec: float
    rename_to_ext: str

    def validate(self) -> "FamilyProfile":
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "float" and not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ConfigError(f"{f.name}: must be a finite number")
        if self.files_per_sec <= 0:
            raise ConfigError("files_per_sec: must be > 0")
        if not (0.0 <= self.obfuscation <= 1.0):
            raise ConfigError("obfuscation: must be in [0,1]")
        if not (0.0 < self.intermittent_duty <= 1.0):
            raise ConfigError("intermittent_duty: must be in (0,1]")
        if self.delay_start_s < 0:
            raise ConfigError("delay_start_s: must be >= 0")
        if self.exfil_bytes_per_sec < 0:
            raise ConfigError("exfil_bytes_per_sec: must be >= 0")
        if not self.filetype_mix:
            raise ConfigError("filetype_mix: must not be empty")
        total = 0.0
        for ext, w in self.filetype_mix.items():
            if ext not in FILETYPES:
                raise ConfigError(f"filetype_mix: unknown filetype {ext!r}")
            if not (isinstance(w, (int, float)) and 0 <= w < math.inf):
                raise ConfigError("filetype_mix: weights must be finite numbers >= 0")
            total += w
        if total <= 0:
            raise ConfigError("filetype_mix: weights must sum > 0")
        return self


@dataclass
class AttackSpec:
    profile: FamilyProfile
    start_s: float = 0.0


@dataclass
class Scenario:
    duration_s: float
    benign_workers: dict[str, int] = field(default_factory=dict)
    attacks: list[AttackSpec] = field(default_factory=list)
    seed: int = 0

    def validate(self) -> "Scenario":
        if not 0 < self.duration_s < math.inf:
            raise ConfigError("duration_s: must be finite and > 0")
        for kind, count in self.benign_workers.items():
            if kind not in ("office", "build", "backup"):
                raise ConfigError(f"benign_workers: unknown archetype {kind!r}")
            if count < 0:
                raise ConfigError("benign_workers: counts must be >= 0")
        for atk in self.attacks:
            atk.profile.validate()
            if not atk.start_s >= 0:
                raise ConfigError("attacks: start_s must be >= 0")
        return self


def load_presets() -> dict[str, dict]:
    text = (
        importlib_resources.files("zsd").joinpath("profiles.json").read_text("utf-8")
    )
    return json.loads(text)


def _field(key: str, kind, value):
    """kind(value) for a manifest field, or a ConfigError naming key. A dict
    or list field must already be one (and is copied); a number is converted."""
    try:
        if type(value) is kind or kind not in (dict, list):
            return kind(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key}: bad value {value!r}")


def _profile(name: str, data: dict) -> FamilyProfile:
    odd = sorted(set(data) ^ ({f.name for f in fields(FamilyProfile)} - {"name"}))
    if odd:
        raise ConfigError(f"{name}: {'unknown' if odd[0] in data else 'missing'} key {odd[0]!r}")
    data["filetype_mix"] = _field("filetype_mix", dict, data["filetype_mix"])
    return FamilyProfile(name=name, **data).validate()


def profile_from_name(family: str, overrides: dict | None = None) -> FamilyProfile:
    presets = load_presets()
    if type(family) is not str or family not in presets:
        raise ConfigError(f"unknown family {family!r}")
    return _profile(family, presets[family] | _field("overrides", dict, overrides or {}))


def scenario_from_mapping(data: dict) -> Scenario:
    """A validated Scenario from a manifest; a bad field is a ConfigError naming it."""
    data = _field("scenario", dict, data)
    attacks = []
    for entry in _field("attacks", list, data.get("attacks", [])):
        entry = _field("attacks", dict, entry)
        if "profile" in entry:
            pd = _field("profile", dict, entry["profile"])
            prof = _profile(pd.pop("name", "custom"), pd)
        else:
            prof = profile_from_name(entry.get("family"), entry.get("overrides"))
        attacks.append(AttackSpec(
            profile=prof, start_s=_field("start_s", float, entry.get("start_s", 0.0))))
    workers = _field("benign_workers", dict, data.get("benign_workers", {}))
    return Scenario(
        duration_s=_field("duration_s", float, data.get("duration_s")),
        benign_workers={k: _field(f"benign_workers.{k}", int, v)
                        for k, v in workers.items()},
        attacks=attacks,
        seed=_field("seed", int, data.get("seed", 0)),
    ).validate()


def load_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    scenario = scenario_from_mapping(data)
    if seed_override is not None:
        scenario.seed = seed_override
    return scenario


def _source_rng(scenario_seed: int, source: str) -> random.Random:
    return random.Random(f"{scenario_seed}:{source}")


# The sources build each Event positionally, in field order (ts, entity, kind,
# path, ext_before, ext_after, bytes, entropy, dst, truth), from these
# constants: keyword arguments and an Enum's class attribute lookup each cost
# more than the rest of making an event.
_FILE_READ = EventKind.FILE_READ
_FILE_WRITE = EventKind.FILE_WRITE
_FILE_RENAME = EventKind.FILE_RENAME
_FILE_DELETE = EventKind.FILE_DELETE
_NET_CONNECT = EventKind.NET_CONNECT
_NET_SEND = EventKind.NET_SEND
_BENIGN = Truth.BENIGN
_MALICIOUS = Truth.MALICIOUS


def _office_events(rng: random.Random, entity: str, duration: float) -> Iterator[Event]:
    exts = [FILETYPES[int(rng.random() * 4)] for _ in range(40)]
    pool = [f"/home/{entity}/docs/doc_{i:03d}.{exts[i]}" for i in range(40)]
    # workers differ: typing pace, save habits, mail chattiness; a good
    # fraction of document processes never touch the network at all
    pace = 0.4 + 2.6 * rng.random()
    write_p = 0.4 + 0.3 * rng.random()
    mail_p = 0.03 + 0.12 * rng.random() if rng.random() < 0.55 else 0.0
    # sessions begin throughout the run, usually with a mail-client sync
    t = rng.random() * duration * 0.5
    if mail_p > 0 and rng.random() < 0.75 and t < duration:
        yield Event(int(t * 1e6), entity, _NET_CONNECT, None, None, None, None, None,
                    "mail.corp", _BENIGN)
        t += 0.05 + rng.random() * 0.3
        if t < duration:
            yield Event(int(t * 1e6), entity, _NET_SEND, None, None, None,
                        _lognormal_bytes(rng, 8.0, 0.6),
                        _entropy_clamped(rng, 5.2, 0.5), "mail.corp", _BENIGN)
        t += 0.3 + rng.random() * 2.0
    while t < duration:
        i = int(rng.random() * len(pool))
        path = pool[i]
        base = _EXT_ENTROPY[exts[i]]
        ent = _entropy_clamped(rng, base, 0.5)
        yield Event(int(t * 1e6), entity, _FILE_READ, path, None, None,
                    _lognormal_bytes(rng, 9.8, 0.8), ent, None, _BENIGN)
        t += 0.05 + rng.random() * 0.4
        u = rng.random()
        if u < write_p and t < duration:
            yield Event(int(t * 1e6), entity, _FILE_WRITE, path, None, None,
                        _lognormal_bytes(rng, 9.9, 0.8),
                        _entropy_clamped(rng, base + 0.1, 0.5), None, _BENIGN)
            t += 0.05 + rng.random() * 0.3
            # autosave: temp file renamed over the document
            if rng.random() < 0.12 and t < duration:
                yield Event(int(t * 1e6), entity, _FILE_RENAME, path, "tmp", exts[i],
                            None, None, None, _BENIGN)
                t += 0.02 + rng.random() * 0.1
        elif u < write_p + mail_p and t < duration:
            yield Event(int(t * 1e6), entity, _NET_CONNECT, None, None, None, None,
                        None, "mail.corp", _BENIGN)
            t += 0.02 + rng.random() * 0.1
            if t < duration:
                yield Event(int(t * 1e6), entity, _NET_SEND, None, None, None,
                            _lognormal_bytes(rng, 8.5, 0.7),
                            _entropy_clamped(rng, 5.2, 0.5), "mail.corp", _BENIGN)
            t += 0.02 + rng.random() * 0.1
        # long think-time between touches
        t += (1.0 + rng.random() * 6.0) * pace


def _build_events(rng: random.Random, entity: str, duration: float,
                  start: float = 0.0, end: float | None = None) -> Iterator[Event]:
    end = duration if end is None else min(end, duration)
    duration = end
    # incremental jobs re-read and rewrite their own outputs in place;
    # clean builds read sources and write fresh objects
    incremental = rng.random() < 0.45
    t = start + 0.5 + rng.random() * 4.0
    build_no = 0
    # CI-style session start: fetch dependencies from the registry
    if t < duration:
        yield Event(int(t * 1e6), entity, _NET_CONNECT, None, None, None, None, None,
                    "registry.corp", _BENIGN)
        t += 0.05 + rng.random() * 0.5
        if rng.random() < 0.8 and t < duration:
            yield Event(int(t * 1e6), entity, _NET_SEND, None, None, None,
                        _lognormal_bytes(rng, 9.5, 0.8),
                        _entropy_clamped(rng, 6.0, 0.5), "registry.corp", _BENIGN)
            t += 0.1 + rng.random() * 1.5
    while t < duration:
        n_src = 12 + int(rng.random() * 24)
        for i in range(n_src):
            if t >= duration:
                return
            if incremental:
                rpath = f"/build/{entity}/mod_{i:03d}.o"
                rent = _entropy_clamped(rng, 6.1, 0.25)
            else:
                rpath = f"/src/{entity}/mod_{i:03d}.c"
                rent = _entropy_clamped(rng, 5.0, 0.3)
            yield Event(int(t * 1e6), entity, _FILE_READ, rpath, None, None,
                        _lognormal_bytes(rng, 9.0, 0.6), rent, None, _BENIGN)
            t += 0.002 + rng.random() * 0.01
        n_obj = max(4, int(n_src * 0.8))
        for i in range(n_obj):
            if t >= duration:
                return
            obj = f"/build/{entity}/mod_{i:03d}.o"
            yield Event(int(t * 1e6), entity, _FILE_WRITE, obj, None, None,
                        _lognormal_bytes(rng, 10.5, 0.7),
                        _entropy_clamped(rng, 6.1, 0.25), None, _BENIGN)
            t += 0.001 + rng.random() * 0.006
            # compilers write to temp files and rename them into place
            if rng.random() < 0.35 and t < duration:
                yield Event(int(t * 1e6), entity, _FILE_RENAME, obj, "tmp", "o", None,
                            None, None, _BENIGN)
                t += 0.001 + rng.random() * 0.004
        if t < duration:
            exe = f"/build/{entity}/app_{build_no:04d}.exe"
            yield Event(int(t * 1e6), entity, _FILE_WRITE, exe, None, None,
                        _lognormal_bytes(rng, 12.0, 0.5),
                        _entropy_clamped(rng, 6.4, 0.2), None, _BENIGN)
            t += 0.01 + rng.random() * 0.02
            if t < duration:
                yield Event(int(t * 1e6), entity, _FILE_RENAME, exe, "tmp", "exe", None,
                            None, None, _BENIGN)
        if rng.random() < 0.3 and t + 0.05 < duration:
            t += 0.05
            yield Event(int(t * 1e6), entity, _FILE_DELETE,
                        f"/build/{entity}/mod_000.o", None, None, None, None, None,
                        _BENIGN)
        build_no += 1
        t += 8.0 + rng.random() * 30.0


def _backup_events(rng: random.Random, entity: str, duration: float) -> Iterator[Event]:
    # backup sessions start anywhere in the first third of the run and open
    # with a connection to the vault; jobs differ widely in pacing, from
    # leisurely archival to aggressive rsync-style mirrors. Modes: local
    # copy, verify/repair (rewrites archives in place), and direct-to-cloud
    # upload (reads paired with sends, no local writes).
    pace = 0.25 + 1.35 * rng.random()
    send_every = 0.4 + 2.0 * rng.random()
    scan_every = 40.0 + 60.0 * rng.random()
    u_mode = rng.random()
    verify = u_mode < 0.3
    upload_only = 0.3 <= u_mode < 0.6
    t = rng.random() * duration * 0.3
    i = 0
    last_send = t
    next_scan = t  # sessions open with an enumeration scan
    if t < duration:
        yield Event(int(t * 1e6), entity, _NET_CONNECT, None, None, None, None, None,
                    "vault.corp", _BENIGN)
        t += 0.02 + rng.random() * 0.2
    while t < duration:
        if t >= next_scan:
            # delta-scan phase: a burst of reads with checksum exchanges
            # but no copies yet
            n_scan = 30 + int(rng.random() * 80)
            for _ in range(n_scan):
                if t >= duration:
                    return
                ext = FILETYPES[int(rng.random() * 4)]
                yield Event(int(t * 1e6), entity, _FILE_READ,
                            f"/data/{entity}/s_{int(rng.random() * 4000):05d}.{ext}",
                            None, None, _lognormal_bytes(rng, 8.0, 0.5),
                            _entropy_clamped(rng, _EXT_ENTROPY[ext], 0.5), None,
                            _BENIGN)
                t += 0.01 + rng.random() * 0.04
                if t - last_send > send_every * 0.5 and t < duration:
                    yield Event(int(t * 1e6), entity, _NET_SEND, None, None, None,
                                _lognormal_bytes(rng, 10.0, 0.8),
                                _entropy_clamped(rng, 6.8, 0.6), "vault.corp", _BENIGN)
                    last_send = t
                    t += 0.01 + rng.random() * 0.02
            next_scan = t + scan_every * (0.7 + 0.6 * rng.random())
        ext = FILETYPES[int(rng.random() * 4)]
        if verify:
            src = f"/backup/{entity}/f_{i % 2500:05d}"
            dst = src
        else:
            src = f"/data/{entity}/f_{i:05d}.{ext}"
            dst = f"/backup/{entity}/f_{i:05d}"
        ent = _entropy_clamped(rng, _EXT_ENTROPY[ext], 0.5)
        size = _lognormal_bytes(rng, 10.8, 0.9)
        yield Event(int(t * 1e6), entity, _FILE_READ, src, None, None, size, ent, None,
                    _BENIGN)
        t += (0.01 + rng.random() * 0.05) * pace
        if t >= duration:
            return
        if upload_only:
            yield Event(int(t * 1e6), entity, _NET_SEND, None, None, None, size, ent,
                        "vault.corp", _BENIGN)
            last_send = t
            i += 1
            t += (0.1 + rng.random() * 0.4) * pace
            continue
        # copy or in-place repair: entropy unchanged by construction
        yield Event(int(t * 1e6), entity, _FILE_WRITE, dst, None, None, size, ent, None,
                    _BENIGN)
        t += (0.02 + rng.random() * 0.08) * pace
        if t - last_send > send_every and t < duration:
            yield Event(int(t * 1e6), entity, _NET_SEND, None, None, None, size, ent,
                        "vault.corp", _BENIGN)
            last_send = t
            t += 0.01 + rng.random() * 0.03
        i += 1
        t += (0.05 + rng.random() * 0.15) * pace


def _active_at(t: float, start: float, duty: float) -> bool:
    if duty >= 1.0:
        return True
    phase = (t - start) % _CYCLE_SECONDS
    return phase < duty * _CYCLE_SECONDS


def _next_active(t: float, start: float, duty: float) -> float:
    if duty >= 1.0 or _active_at(t, start, duty):
        return t
    cycles = (t - start) // _CYCLE_SECONDS
    return start + (cycles + 1) * _CYCLE_SECONDS


def _attack_file_events(
    rng: random.Random, entity: str, profile: FamilyProfile, start: float, duration: float
) -> Iterator[Event]:
    mix_exts = sorted(profile.filetype_mix)
    mix_total = sum(profile.filetype_mix[e] for e in mix_exts)
    duty = profile.intermittent_duty
    gap = 1.0 / profile.files_per_sec
    crypto_budget = _ENCRYPT_BYTES_PER_SEC / profile.files_per_sec
    rename_keep = min(1.0, (_RENAME_OPS_PER_SEC / profile.files_per_sec) ** 2)
    # double extortion: the exfil channel opens first, encryption follows
    t = start + 3.0 + 5.0 * rng.random()
    j = 0
    while j < _VICTIM_CORPUS_FILES:
        t = _next_active(t, start, duty)
        # fixed draw budget per file (14 draws) so mask decisions stay
        # aligned across obfuscation levels under a common seed
        u_ext = rng.random()
        jitter = 0.7 + 0.6 * rng.random()
        u_read = (rng.random(), rng.random())
        e_attack = _entropy_clamped(rng, profile.entropy_mean, profile.entropy_sd)
        u_masked = (rng.random(), rng.random())
        u_mask_entropy = rng.random()
        u_mask_rename = rng.random()
        u_mask_pattern = rng.random()
        size = _lognormal_bytes(rng, 10.9, 0.8)
        # encryption is IO-bound: the per-file step scales with file size,
        # and the intra-file offsets stay inside the step so the stream
        # remains time-ordered
        step = gap * jitter * (0.35 + 0.65 * size / 74700.0)
        d1 = step * (0.15 + 0.2 * rng.random())
        d2 = step * (0.45 + 0.2 * rng.random())

        acc = 0.0
        for e in mix_exts:
            acc += profile.filetype_mix[e] / mix_total
            if u_ext <= acc:
                ext = e
                break
        else:
            ext = mix_exts[-1]
        base = _EXT_ENTROPY[ext]
        e_read = _box_muller_clamped(u_read, base, 0.5)
        e_masked = _box_muller_clamped(u_masked, base + 0.1, 0.5)

        path = f"/u/victim/files/f_{j:06d}.{ext}"

        if t >= duration:
            return
        yield Event(int(t * 1e6), entity, _FILE_READ, path, None, None, size, e_read,
                    None, _MALICIOUS)
        tw = t + d1
        if tw >= duration:
            return
        if u_mask_entropy < profile.obfuscation:
            e_write = e_masked
        else:
            # partial encryption: past the throughput ceiling only a
            # fraction of each file is ciphertext
            frac = crypto_budget / size
            if frac >= 1.0:
                e_write = e_attack
            else:
                e_write = frac * e_attack + (1.0 - frac) * e_read
        if u_mask_pattern < profile.obfuscation:
            # pattern mask: encrypted copy written beside the original
            # instead of over it (defeats read-then-write correlation)
            write_path = f"/u/victim/files/.stage/c_{j:06d}.{ext}"
        else:
            write_path = path
        yield Event(int(tw * 1e6), entity, _FILE_WRITE, write_path, None, None, size,
                    e_write, None, _MALICIOUS)
        tr = t + d2
        if tr >= duration:
            return
        if u_mask_rename >= 1.0 - rename_keep * (1.0 - profile.obfuscation):
            yield Event(int(tr * 1e6), entity, _FILE_RENAME, path, ext,
                        profile.rename_to_ext, None, None, None, _MALICIOUS)
        j += 1
        t += step


def _attack_exfil_events(
    rng: random.Random, entity: str, profile: FamilyProfile, start: float, duration: float
) -> Iterator[Event]:
    if profile.exfil_bytes_per_sec <= 0:
        return
    duty = profile.intermittent_duty
    # the channel goes quiet when the encryption campaign completes
    # (campaign = exfil lead + corpus work stretched by the duty cycle)
    campaign = 10.0 + _VICTIM_CORPUS_FILES / profile.files_per_sec / duty + 5.0
    end = min(duration, start + campaign)
    t = start
    connected_cycle = -1.0
    while True:
        t = _next_active(t, start, duty)
        if t >= end:
            return
        cycle = (t - start) // _CYCLE_SECONDS if duty < 1.0 else 0.0
        if cycle != connected_cycle:
            yield Event(int(t * 1e6), entity, _NET_CONNECT, None, None, None, None,
                        None, "203.0.113.66", _MALICIOUS)
            connected_cycle = cycle
            t += 0.01
            if t >= end:
                return
        burst = profile.exfil_bytes_per_sec * _EXFIL_INTERVAL
        u_mask = rng.random()
        jitter = 0.8 + 0.4 * rng.random()
        benign_size = _lognormal_bytes(rng, 8.3, 0.5)
        e_hot = _entropy_clamped(rng, 7.9, 0.05)
        e_cold = _entropy_clamped(rng, 5.3, 0.6)
        u_rext = rng.random()
        u_stage = (rng.random(), rng.random())
        # staging read: exfiltration reads what it steals
        rext = FILETYPES[int(u_rext * 4)]
        yield Event(int(t * 1e6), entity, _FILE_READ,
                    f"/u/victim/files/x_{int(u_rext * 5000):05d}.{rext}", None, None,
                    _lognormal_bytes(rng, 10.2, 0.8),
                    _box_muller_clamped(u_stage, _EXT_ENTROPY[rext], 0.5), None,
                    _MALICIOUS)
        t += 0.02 + 0.05 * rng.random()
        if t >= end:
            return
        if u_mask < profile.obfuscation:
            nbytes, ent = benign_size, e_cold
        else:
            nbytes, ent = max(1, int(burst * jitter)), e_hot
        yield Event(int(t * 1e6), entity, _NET_SEND, None, None, None, nbytes, ent,
                    "203.0.113.66", _MALICIOUS)
        t += _EXFIL_INTERVAL


@dataclass
class TruthIndex:
    """Sidecar ground truth: entity -> label (+ family, first malicious ts)."""

    entities: dict[str, dict] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"entities": self.entities}, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str | Path) -> "TruthIndex":
        """Read a truth file; a malformed one is a ZsdError that names it."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise ZsdError(f"{path}: {exc}") from None
        entities = data.get("entities") if isinstance(data, dict) else None
        if not isinstance(entities, dict) or not all(
                isinstance(info, dict) and "label" in info
                and type(info.get("first_malicious_ts", 0)) is int for info in entities.values()):
            raise ZsdError(f'{path}: expected {{"entities": {{name: {{"label": ..., '
                           f'"first_malicious_ts": int}}}}}}')
        return cls(entities=entities)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def generate(scenario: Scenario) -> tuple[list[Event], TruthIndex]:
    """Produce the ts-sorted labeled stream and its truth index."""
    scenario.validate()
    duration = scenario.duration_s
    seed = scenario.seed
    truth = TruthIndex()
    streams: list[Iterator[Event]] = []

    for i in range(scenario.benign_workers.get("office", 0)):
        entity = f"office_{i}"
        streams.append(_office_events(_source_rng(seed, entity), entity, duration))
        truth.entities[entity] = {"label": "benign"}

    # build jobs churn: each worker slot spawns a sequence of session
    # entities so cold starts occur throughout the run
    for i in range(scenario.benign_workers.get("build", 0)):
        sched = _source_rng(seed, f"build_{i}:sched")
        t0 = sched.random() * 40.0
        k = 0
        while t0 < duration:
            length = 90.0 + sched.random() * 150.0
            entity = f"build_{i}s{k}"
            rng = _source_rng(seed, entity)
            streams.append(_build_events(rng, entity, duration,
                                         start=t0, end=t0 + length))
            truth.entities[entity] = {"label": "benign"}
            t0 += length + 15.0 + sched.random() * 60.0
            k += 1

    for i in range(scenario.benign_workers.get("backup", 0)):
        entity = f"backup_{i}"
        streams.append(_backup_events(_source_rng(seed, entity), entity, duration))
        truth.entities[entity] = {"label": "benign"}

    for i, atk in enumerate(scenario.attacks):
        prof = atk.profile
        entity = f"atk_{prof.name}_{i}"
        start = atk.start_s + prof.delay_start_s
        rng_f = _source_rng(seed, f"{entity}:files")
        rng_x = _source_rng(seed, f"{entity}:exfil")
        streams.append(_attack_file_events(rng_f, entity, prof, start, duration))
        streams.append(_attack_exfil_events(rng_x, entity, prof, start, duration))
        truth.entities[entity] = {
            "label": "malicious",
            "family": prof.name,
            "first_malicious_ts": int(start * 1e6),
        }

    # merge per-source sorted streams (tie-break on stream index), applying
    # the per-entity sensor rate limit deterministically
    events: list[Event] = []
    heap: list[tuple[int, int, Event, Iterator[Event]]] = []
    for idx, stream in enumerate(streams):
        first = next(stream, None)
        if first is not None:
            heap.append((first.ts, idx, first, stream))
    heapq.heapify(heap)
    # entity -> [tokens, ts of its last event]
    buckets: dict[str, list] = {}
    # an entity's first event always passes (its bucket starts full), so the
    # ts that opens a bucket is the entity's first kept ts
    first_kept: dict[str, int] = {}
    tokens_per_us = _SENSOR_RATE_PER_SEC / 1e6
    while heap:
        ts, idx, evt, stream = heap[0]
        bucket = buckets.get(evt.entity)
        if bucket is None:
            buckets[evt.entity] = [_SENSOR_BURST - 1.0, ts]
            first_kept[evt.entity] = ts
            events.append(evt)
        else:
            tokens = bucket[0] + (ts - bucket[1]) * tokens_per_us
            if tokens > _SENSOR_BURST:
                tokens = _SENSOR_BURST
            if tokens >= 1.0:
                tokens -= 1.0
                events.append(evt)
            bucket[0] = tokens
            bucket[1] = ts
        nxt = next(stream, None)
        if nxt is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (nxt.ts, idx, nxt, stream))

    for entity, info in truth.entities.items():
        if info["label"] == "malicious" and entity in first_kept:
            info["first_malicious_ts"] = first_kept[entity]
    return events, truth


# wire text of each kind, and the tail of a line for each truth
_KIND_TEXT = {kind: encode_basestring_ascii(kind.value) for kind in EventKind}
_TRUTH_TAIL = {None: "}"} | {
    truth: ',"truth":%s}' % encode_basestring_ascii(truth.value) for truth in Truth}


def event_to_json_line(event: Event) -> str:
    """One JSON object on one line: the text the compact ``json`` encoder
    gives for the event's fields in declaration order, absent fields left
    out, entropy rounded to 6 decimals."""
    # encode_basestring_ascii is the quoting json.dumps applies to a str
    line = '{"ts":%d,"entity":%s,"kind":%s' % (
        event.ts, encode_basestring_ascii(event.entity), _KIND_TEXT[event.kind])
    if event.path is not None:
        line += ',"path":' + encode_basestring_ascii(event.path)
    if event.ext_before is not None:
        line += ',"ext_before":' + encode_basestring_ascii(event.ext_before)
    if event.ext_after is not None:
        line += ',"ext_after":' + encode_basestring_ascii(event.ext_after)
    if event.bytes is not None:
        line += ',"bytes":%d' % event.bytes
    entropy = event.entropy
    if entropy is not None:
        entropy = round(entropy, 6)
        if math.isfinite(entropy):
            line += ',"entropy":%r' % entropy
        else:
            # json's spelling of the non-finite floats
            line += ',"entropy":' + ("NaN" if entropy != entropy else
                                     "Infinity" if entropy > 0 else "-Infinity")
    if event.dst is not None:
        line += ',"dst":' + encode_basestring_ascii(event.dst)
    return line + _TRUTH_TAIL[event.truth]


def write_events(events: list[Event], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            fh.write(event_to_json_line(e) + "\n")


def _scenario_doc(
    duration_s: float,
    benign: dict[str, int],
    attacks: list[dict],
    seed: int = 1,
) -> dict:
    return {
        "duration_s": duration_s,
        "seed": seed,
        "benign_workers": dict(benign),
        "attacks": attacks,
    }


_BENIGN_STD = {"office": 4, "build": 1, "backup": 2}
FAMILIES = ("lockbit", "conti", "revil", "blackmatter")


def _train_doc(seed: int = 101) -> dict:
    # training covers the families at the obfuscation levels of captured
    # samples (light); heavier masking is the evasion frontier the sweeps
    # probe, so it stays out of the training distribution
    return _scenario_doc(
        560.0,
        _BENIGN_STD,
        [
            {"family": "lockbit", "start_s": 40.0, "overrides": {"obfuscation": 0.0}},
            {"family": "lockbit", "start_s": 120.0, "overrides": {"obfuscation": 0.25}},
            {"family": "conti", "start_s": 200.0, "overrides": {"obfuscation": 0.1}},
            {"family": "conti", "start_s": 280.0,
             "overrides": {"obfuscation": 0.15, "files_per_sec": 4.0}},
            {"family": "revil", "start_s": 360.0, "overrides": {"obfuscation": 0.2}},
            {"family": "blackmatter", "start_s": 440.0, "overrides": {}},
        ],
        seed=seed,
    )


def _attacks(family: str, starts: tuple[float, ...], overrides: dict) -> list[dict]:
    return [{"family": family, "start_s": start, "overrides": dict(overrides)}
            for start in starts]


def standard_suites() -> dict[str, tuple]:
    """Each suite as (sweep parameter, seeds, config overrides, points); a
    point is (manifest name, sweep value, family, scenario document)."""
    return {
        # S1: per-family accuracy, fixed 10-minute scenarios
        "s1": ("family", [1, 2, 3, 4, 5], {}, [
            (f"{fam}.json", fam, fam,
             _scenario_doc(600.0, _BENIGN_STD, [{"family": fam, "start_s": 240.0}]))
            for fam in FAMILIES]),
        # S2: detection by file type
        "s2": ("filetype", [1, 2, 3], {}, [
            (f"{fam}_{ft}.json", ft, fam,
             _scenario_doc(240.0, _BENIGN_STD, [
                 {"family": fam, "start_s": 90.0, "overrides": {"filetype_mix": {ft: 1.0}}}]))
            for fam in FAMILIES for ft in FILETYPES]),
        # S3: obfuscation sweep; within a family the manifests differ only in
        # the obfuscation override (duty pinned so masking is the only moving
        # part). The experiment raises the decision bar (tau, confirmations)
        # so the detector operates on the sensitive shoulder of its curve.
        "s3": ("obfuscation", [1, 2, 3, 4, 5], {"tau": 0.58, "smooth_m": 5}, [
            (f"{fam}_obf{int(lvl * 100):03d}.json", lvl, fam,
             _scenario_doc(300.0, _BENIGN_STD, _attacks(
                 fam, (90.0, 120.0), {"obfuscation": lvl, "intermittent_duty": 1.0})))
            for fam in ("lockbit", "conti", "revil")
            for lvl in (0.0, 0.25, 0.5, 0.75, 1.0)]),
        # S4: encryption-speed sweep spanning almost two decades. Obfuscation
        # and duty are held constant across the sweep so the speed effects
        # (partial encryption diluting payload entropy, ceremony and telemetry
        # ceilings) are the only moving parts.
        "s4": ("files_per_sec", [1, 2, 3, 4, 5], {}, [
            (f"{fam}_fps{int(sp):03d}.json", sp, fam, _scenario_doc(
                min(480.0, 120.0 + _VICTIM_CORPUS_FILES / sp), _BENIGN_STD,
                _attacks(fam, (60.0, 75.0),
                         {"files_per_sec": sp, "obfuscation": 0.4, "intermittent_duty": 1.0})))
            for fam in ("lockbit", "blackmatter")
            for sp in (4.0, 10.0, 25.0, 60.0, 140.0, 300.0)]),
        # S5: benign load ladder for latency/throughput
        "s5": ("load", [1], {}, [
            (f"load_{n:02d}.json", n, "none", _scenario_doc(
                90.0, {"office": n, "build": max(1, n // 4), "backup": max(1, n // 8)}, []))
            for n in (2, 4, 8, 16, 32)]),
    }


def write_suite(out_dir: str | Path, suite: str, spec: tuple) -> Path:
    """Write one entry of standard_suites() as out_dir/suite: its scenario
    manifests, train.json, and a suite.json naming the swept parameter, the
    per-run metadata, the seeds and the training scenario."""
    sweep_param, seeds, overrides, points = spec
    sdir = Path(out_dir) / suite
    sdir.mkdir(parents=True, exist_ok=True)
    docs = {"train.json": _train_doc()} | {name: scen for name, _, _, scen in points}
    docs["suite.json"] = {
        "suite": suite, "sweep_param": sweep_param, "seeds": seeds,
        "train_scenario": "train.json", "config_overrides": overrides,
        "runs": [{"scenario": name, "sweep_value": value, "family": family}
                 for name, value, family, _ in points],
    }
    for fname, doc in docs.items():
        with open(sdir / fname, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return sdir


def make_standard_suites(out_dir: str | Path) -> dict[str, Path]:
    """Write every standard experiment suite under out_dir."""
    return {suite: write_suite(out_dir, suite, spec)
            for suite, spec in standard_suites().items()}
