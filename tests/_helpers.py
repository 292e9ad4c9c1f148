"""Shared test utilities: finite-difference oracle and tiny builders."""

import hashlib
import struct

import numpy as np


def idx_bytes(images=None, labels=None):
    """An IDX file of (n, h, w) uint8 images, or else of (n,) uint8 labels."""
    if images is not None:
        n, h, w = images.shape
        return struct.pack(">iiii", 0x00000803, n, h, w) + images.tobytes()
    n = labels.shape[0]
    return struct.pack(">ii", 0x00000801, n) + labels.tobytes()


def fd_grad(f, x, coords=None, h=1e-5):
    """Central-difference gradient of scalar f at x, optionally only at the
    given flat coordinates."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    if coords is None:
        coords = range(flat.size)
    out = np.zeros(flat.size)
    for i in coords:
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        dn = f(x)
        flat[i] = orig
        out[i] = (up - dn) / (2 * h)
    return out.reshape(x.shape)


def rel_err(ad, fd):
    ad = np.asarray(ad, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    return np.max(np.abs(ad - fd) / np.maximum(1.0, np.abs(fd)))


def project(y, r=None):
    """Σ y·r (Σ y without r) as a taped scalar, from reshape and linear with a
    zero bias: the loss the op tests differentiate. r may be an ndarray or a
    Var."""
    from frameprompt import tensor as T

    if r is None:
        r = np.ones(y.shape)
    return T.reshape(T.linear(T.reshape(y, (1, -1)), T.reshape(r, (-1, 1)), np.zeros(1)), ())


def assert_gradcheck(build, x, coords=None, tol=1e-6):
    """build(tape, x_var) -> scalar Var; compares backward against FD."""
    from frameprompt import tensor as T

    def value(arr):
        tape = T.Tape()
        xv = tape.var(arr, requires_grad=True)
        return float(build(tape, xv).value)

    tape = T.Tape()
    xv = tape.var(x, requires_grad=True)
    loss = build(tape, xv)
    T.backward(loss)
    fd = fd_grad(value, x, coords=coords)
    ad = xv.grad
    if coords is not None:
        mask = np.zeros(x.size, dtype=bool)
        mask[list(coords)] = True
        ad = ad.reshape(-1)[mask]
        fd = fd.reshape(-1)[mask]
    err = rel_err(ad, fd)
    assert err < tol, f"gradcheck failed: rel err {err:.3e}"
    return err


def same_bits(got, want):
    """Equal shapes, dtypes and bytes, so ±0.0 must match too."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def oracle_agglomerate(features):
    """Brute force average linkage: recompute every cross-cluster mean from
    the raw distance matrix at every step."""
    x = np.asarray(features, dtype=np.float64)
    n = len(x)
    dist = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    clusters = {i: [i] for i in range(n)}
    merges = []
    for step in range(n - 1):
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if b <= a:
                    continue
                avg = dist[np.ix_(clusters[a], clusters[b])].mean()
                if best is None or avg < best[0]:
                    best = (avg, a, b)
        avg, a, b = best
        new_id = n + step
        clusters[new_id] = clusters.pop(a) + clusters.pop(b)
        merges.append((a, b, avg, new_id))
    return merges


def oracle_cut(n, merges, tau, cap=None):
    """Labels of a dendrogram cut, applying merges one at a time: up to the
    first linkage above tau, then on while there are more clusters than cap.
    Clusters are numbered by their smallest member id."""
    clusters = {i: [i] for i in range(n)}
    step = 0

    def merge():
        a, b, _, new_id = merges[step]
        clusters[new_id] = clusters.pop(a) + clusters.pop(b)

    while step < len(merges) and merges[step][2] <= tau:
        merge()
        step += 1
    while cap is not None and len(clusters) > cap:
        merge()
        step += 1
    labels = np.empty(n, dtype=np.int64)
    for label, members in enumerate(sorted(clusters.values(), key=min)):
        labels[members] = label
    return labels


def rescan_agglomerate(dist):
    """Average linkage by a full rescan of the summed-distance matrix at every
    merge, from a given (n, n) distance matrix. It performs the same additions
    and divisions as the cached engine, so merge values must match bit for bit."""
    n = len(dist)
    ids, sizes, sums = list(range(n)), np.ones(n, dtype=np.int64), np.array(dist)
    merges = []
    for step in range(n - 1):
        avg = sums / np.outer(sizes, sizes)
        iu = np.triu_indices(len(ids), k=1)
        flat = avg[iu]
        # first hit in row-major upper-triangle order is the lex-smallest pair
        pos = int(np.flatnonzero(flat == flat.min())[0])
        i, j = int(iu[0][pos]), int(iu[1][pos])
        merges.append((ids[i], ids[j], float(flat[pos]), n + step))
        keep = [k for k in range(len(ids)) if k not in (i, j)]
        merged = sums[i, keep] + sums[j, keep]
        sums = np.pad(sums[np.ix_(keep, keep)], ((0, 1), (0, 1)))
        sums[-1, :-1] = sums[:-1, -1] = merged
        sizes = np.append(sizes[keep], sizes[i] + sizes[j])
        ids = [ids[k] for k in keep] + [n + step]
    return merges


def tie_input(rng):
    """(3, 4, 8, 10) pool input whose first plane holds all 16 sign patterns
    of an all-zero window, then windows that are all equal, all negative,
    and tied at zero with mixed signs; the rest are integer-grid values that
    tie often. Returns it with the value grid."""
    grid = np.array([-2.0, -1.0, -0.0, 0.0, 1.0])
    x = rng.choice(grid, size=(3, 4, 8, 10))
    signs = (np.arange(16)[:, None] >> np.arange(4)) & 1
    windows = list(np.where(signs == 1, -0.0, 0.0).reshape(16, 2, 2))
    windows += [np.full((2, 2), 1.5),                    # all equal
                np.full((2, 2), -2.0),                   # all equal, negative
                np.array([[-3.0, -1.0], [-1.0, -2.0]]),  # negative, tie at 1, 2
                np.array([[-1.0, -0.0], [0.0, -5.0]])]   # -0.0 ties +0.0
    for k, win in enumerate(windows):
        x[0, 0, 2 * (k // 5):2 * (k // 5) + 2, 2 * (k % 5):2 * (k % 5) + 2] = win
    return x, grid


def oracle_conv2d_forward(x, w, stride, pad):
    """Direct-loop cross-correlation; out-of-range taps read as zero."""
    b, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    y = np.zeros((b, co, ho, wo))
    for n in range(b):
        for o in range(co):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for c in range(ci):
                        for ky in range(kh):
                            iy = oy * stride + ky - pad
                            if iy < 0 or iy >= h:
                                continue
                            for kx in range(kw):
                                ix = ox * stride + kx - pad
                                if 0 <= ix < wd:
                                    acc += x[n, c, iy, ix] * w[o, c, ky, kx]
                    y[n, o, oy, ox] = acc
    return y


def oracle_conv2d_backward_input(dy, w, stride, pad, in_h, in_w):
    """Direct loops over every input pixel and every output tap reading it."""
    b, co, ho, wo = dy.shape
    _, ci, kh, kw = w.shape
    dx = np.zeros((b, ci, in_h, in_w))
    for n in range(b):
        for c in range(ci):
            for iy in range(in_h):
                for ix in range(in_w):
                    acc = 0.0
                    for o in range(co):
                        for ky in range(kh):
                            ty = iy + pad - ky
                            if ty < 0 or ty % stride or ty // stride >= ho:
                                continue
                            for kx in range(kw):
                                tx = ix + pad - kx
                                if tx < 0 or tx % stride or tx // stride >= wo:
                                    continue
                                acc += dy[n, o, ty // stride, tx // stride] * w[o, c, ky, kx]
                    dx[n, c, iy, ix] = acc
    return dx


def oracle_conv2d_backward_weight(x, dy, stride, pad, kh, kw):
    b, ci, h, wd = x.shape
    _, co, ho, wo = dy.shape
    dw = np.zeros((co, ci, kh, kw))
    for o in range(co):
        for c in range(ci):
            for ky in range(kh):
                for kx in range(kw):
                    acc = 0.0
                    for n in range(b):
                        for oy in range(ho):
                            iy = oy * stride + ky - pad
                            if iy < 0 or iy >= h:
                                continue
                            for ox in range(wo):
                                ix = ox * stride + kx - pad
                                if 0 <= ix < wd:
                                    acc += x[n, c, iy, ix] * dy[n, o, oy, ox]
                    dw[o, c, ky, kx] = acc
    return dw


def oracle_maxpool2_forward(x):
    """2x2 stride-2 max pool scanning each window in row-major order; only a
    strictly larger value displaces the best, so ties keep the lowest offset."""
    b, c, h, w = x.shape
    y = np.empty((b, c, h // 2, w // 2))
    idx = np.empty((b, c, h // 2, w // 2), dtype=np.int8)
    for n in range(b):
        for ch in range(c):
            for oy in range(h // 2):
                for ox in range(w // 2):
                    best, best_k = x[n, ch, 2 * oy, 2 * ox], 0
                    for k in range(1, 4):
                        v = x[n, ch, 2 * oy + (k >> 1), 2 * ox + (k & 1)]
                        if v > best:
                            best, best_k = v, k
                    y[n, ch, oy, ox] = best
                    idx[n, ch, oy, ox] = best_k
    return y, idx


def oracle_maxpool2_backward(dy, idx):
    b, c, ho, wo = dy.shape
    dx = np.zeros((b, c, 2 * ho, 2 * wo))
    for n in range(b):
        for ch in range(c):
            for oy in range(ho):
                for ox in range(wo):
                    k = idx[n, ch, oy, ox]
                    dx[n, ch, 2 * oy + (k >> 1), 2 * ox + (k & 1)] = dy[n, ch, oy, ox]
    return dx


def make_modemix(modes, classes_per_mode, samples_per_class, jitter, seed,
                 size=32):
    """Synthetic dataset standardized by its own channel statistics."""
    from frameprompt.data import SyntheticSpec, generate_modemix

    ds = generate_modemix(SyntheticSpec(modes=modes,
                                        classes_per_mode=classes_per_mode,
                                        samples_per_class=samples_per_class,
                                        jitter=jitter, seed=seed, size=size))
    ds.standardize(*ds.channel_stats())
    return ds


def routed_bundle(enc, ds, count, seed=0):
    """A PromptBundle of count random prompts over ds's image size, a tuning
    head over its classes, and count prototypes taken from ds's features:
    row 0, then each next the row farthest from those already taken, so a
    bundle of two or more routes to more than one prototype."""
    from frameprompt.adapt import build_head
    from frameprompt.prompt import FrameSpec, PromptBundle, PromptFrame

    spec = FrameSpec.for_input(*ds.images.shape[1:])
    prompts = [PromptFrame.random(spec, 0.5, [seed, t]) for t in range(count)]
    feats = enc.forward_features(ds.images)
    rows = [0]
    while len(rows) < count:
        dist = ((feats[:, None, :] - feats[rows][None]) ** 2).sum(axis=2).min(axis=1)
        rows.append(int(np.argmax(dist)))
    head = build_head(enc, "tuning", ds.class_count, 256, seed)
    return PromptBundle(prompts, feats[rows], head, enc.fingerprint, "{}")


def _layout(sizes):
    """{name: (start, end)} of consecutive fields of the given sizes."""
    fields, pos = {}, 0
    for name, size in sizes:
        fields[name] = (pos, pos + size)
        pos += size
    return fields


def damw_fields(enc):
    """{name: (start, end)} of each field of enc's weight file, in file order,
    laid out from the format's description rather than by its writer."""
    sizes = [("magic", 4), ("version", 4), ("in_channels", 4), ("height", 4), ("width", 4)]
    sizes += [(f"{name}.payload", 8 * arr.size) for name, arr in enc.weights.items()]
    sizes += [("train_accuracy", 8), ("seed", 8), ("id_length", 4),
              ("id", len(enc.pretrain_dataset_id.encode("utf-8"))),
              ("f0", 8 * enc.f0.size), ("digest", 8)]
    return _layout(sizes)


def damp_fields(bundle):
    """{name: (start, end)} of each field of bundle's file, in file order,
    laid out from the format's description rather than by its writer."""
    p = bundle.prompts[0].values
    sizes = [("magic", 4), ("version", 4), ("count", 4), ("channels", 4), ("height", 4),
             ("width", 4), ("border", 4), ("feature_dim", 4),
             ("prototypes", 8 * bundle.prototypes.size), ("head_tag", 1), ("flags", 1),
             ("k", 4)]
    if bundle.head.indices is None:
        sizes += [("head_rows", 4), ("head_weight", 8 * bundle.head.weight.size),
                  ("head_bias", 8 * bundle.head.bias.size)]
    else:
        sizes += [("head_indices", 8 * bundle.head.indices.size)]
    sizes += [("fingerprint", 8)] + [(f"prompt{t}", 8 * p.size) for t in range(bundle.n)]
    sizes += [("snapshot_length", 4), ("snapshot", len(bundle.config_snapshot.encode("utf-8"))),
              ("digest", 8)]
    return _layout(sizes)


def sealed_digest(body):
    """The u64 a sealed file keeps for body: sha256's first 8 bytes, little-endian."""
    return struct.unpack("<Q", hashlib.sha256(body).digest()[:8])[0]


def resealed(blob, start, end, new):
    """The sealed file blob with bytes [start, end) replaced by new, under the
    digest of its new body, so that the edit reaches the loader's own checks."""
    body = blob[8:start] + new + blob[end:-8]
    return blob[:8] + body + struct.pack("<Q", sealed_digest(body))


def _sealed_damage(fields, blob):
    """(case, bytes, error type name) for the damage any sealed file can
    take: one byte flipped at each end of every field, a cut at each field
    boundary, trailing bytes, and version headers of 1 up to its own. Under
    16 bytes a file is truncated; past that, a cut or an extension fails the
    digest, as does any flip but one of the magic or the version."""
    assert fields["digest"][1] == len(blob)
    kinds = {"magic": "BadMagicError", "version": "FormatError"}
    cases = []
    for region, (start, end) in fields.items():
        for at in sorted({start, end - 1} & set(range(start, end))):
            flipped = bytearray(blob)
            flipped[at] ^= 0xFF
            cases.append((f"flip {region}[{at - start}]", bytes(flipped),
                          kinds.get(region, "FingerprintMismatchError")))
    for start, _ in fields.values():
        cases.append((f"cut at {start}", blob[:start],
                      "TruncatedFileError" if start < 16 else "FingerprintMismatchError"))
    cases.append(("cut before the last byte", blob[:-1], "FingerprintMismatchError"))
    cases.append(("trailing bytes", blob + b"\x00\x01", "FingerprintMismatchError"))
    for version in range(1, struct.unpack("<I", blob[4:8])[0]):
        cases.append((f"version {version}", blob[:4] + struct.pack("<I", version) + blob[8:],
                      "FormatError"))
    return cases


def corrupt_damw(enc, blob):
    """(case, bytes, error type name) for each way a weight file of enc
    (blob, as saved) goes bad: the damage any sealed file can take, then
    under a valid digest a spec whose arrays no int64 can size, a non-UTF-8
    id, and +inf in conv1_b or NaN in fc_w."""
    fields = damw_fields(enc)
    cases = _sealed_damage(fields, blob)
    # fc_w of a 0xfffffffc-square input holds more than 2**63 floats
    start, end = fields["height"][0], fields["width"][1]
    cases.append(("spec past any array", resealed(blob, start, end, b"\xfc" + b"\xff" * 3
                                                  + b"\xfc" + b"\xff" * 3),
                  "TruncatedFileError"))
    start, end = fields["id"]
    cases.append(("non-UTF-8 id", resealed(blob, start, end, b"\xff" * (end - start)),
                  "FormatError"))
    # a non-finite weight: relu turns the NaNs an infinite bias makes into
    # zeros, so the stored f0 alone would not refuse it
    for case, name, value in (("+inf in conv1_b", "conv1_b", np.inf),
                              ("NaN in fc_w", "fc_w", np.nan)):
        start = fields[f"{name}.payload"][0]
        cases.append((case, resealed(blob, start, start + 8, struct.pack("<d", value)),
                      "FormatError"))
    return cases


def corrupt_damp(bundle, blob):
    """(case, bytes, error type name) for each way the file of bundle (blob,
    as saved) goes bad: the damage any sealed file can take, then under a
    valid digest a non-UTF-8 snapshot, an unknown head tag, unknown flag
    bits, and a nonzero value inside the first prompt's frame."""
    fields = damp_fields(bundle)
    cases = _sealed_damage(fields, blob)
    start, end = fields["snapshot_length"][0], fields["snapshot"][1]
    cases.append(("non-UTF-8 snapshot", resealed(blob, start, end, struct.pack("<I", 1) + b"\xff"),
                  "FormatError"))
    start, end = fields["head_tag"]
    cases.append(("unknown head tag", resealed(blob, start, end, b"\x04"), "FormatError"))
    start, end = fields["flags"]
    cases.append(("unknown flag bits", resealed(blob, start, end, bytes([blob[start] | 2])),
                  "FormatError"))
    c, h, w = bundle.prompts[0].values.shape
    at = fields["prompt0"][0] + 8 * (h // 2 * w + w // 2)  # channel 0, mid-image
    cases.append(("nonzero prompt interior", resealed(blob, at, at + 8, struct.pack("<d", 0.5)),
                  "ShapeError"))
    return cases
