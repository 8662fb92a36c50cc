#!/usr/bin/env python3
"""Materialize the fixed-seed synthetic corpus as wav files + speaker map."""

import argparse

from vcaug.data import CROSSFADE_S, write_corpus_tree


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="corpus")
    parser.add_argument("--speakers", type=int, default=6)
    parser.add_argument("--utterances", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.speakers < 1:
        parser.error(f"--speakers must be at least 1, got {args.speakers}")
    if args.utterances < 1:
        parser.error(f"--utterances must be at least 1, got {args.utterances}")
    if not args.duration >= CROSSFADE_S:
        parser.error(f"--duration must be at least one {CROSSFADE_S * 1000:g}-ms crossfade, "
                     f"got {args.duration:g} s")
    map_path = write_corpus_tree(
        args.out,
        n_speakers=args.speakers,
        utts_per_speaker=args.utterances,
        seed=args.seed,
        duration_s=args.duration,
    )
    print(f"wrote {args.speakers} speakers x {args.utterances} utterances under {args.out}")
    print(f"speaker map: {map_path}")


if __name__ == "__main__":
    main()
