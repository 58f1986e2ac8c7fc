//! # gendp-seq
//!
//! Synthetic genomics workload generators for the GenDP reproduction.
//!
//! The paper evaluates on proprietary-scale datasets (Illumina NA12878
//! short reads, PacBio C. elegans long reads, GATK chr22 read–haplotype
//! pairs, Flye/ONT S. aureus read groups). This crate generates synthetic
//! equivalents with the same *structural* properties — sequence lengths,
//! error profiles, anchor geometry and read-group composition — which are
//! what the DP kernels' compute and dependency patterns actually depend on
//! (see DESIGN.md §4 for the substitution argument).
//!
//! All generators are deterministic given a [`rand::Rng`]; experiments seed
//! them for reproducibility.
//!
//! ```
//! use gendp_seq::{Genome, ShortReadProfile};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let genome = Genome::random(10_000, &mut rng);
//! let reads = ShortReadProfile::illumina().sample(&genome, 100, &mut rng);
//! assert_eq!(reads.len(), 100);
//! assert_eq!(reads[0].seq.len(), 101);
//! ```

#![forbid(unsafe_code)]

mod anchors;
mod base;
pub mod fasta;
mod genome;
mod haplotype;
mod mutate;
pub mod phred;
mod readgroup;
mod reads;
mod seq;

pub use anchors::{extract_anchors, Anchor, KmerIndex};
pub use base::Base;
pub use fasta::{read_fasta, write_fasta, FastaRecord};
pub use genome::Genome;
pub use haplotype::{HaplotypePair, HaplotypeProfile};
pub use mutate::MutationProfile;
pub use readgroup::{ReadGroup, ReadGroupProfile};
pub use reads::{LongReadProfile, Read, ShortReadProfile};
pub use seq::DnaSeq;
