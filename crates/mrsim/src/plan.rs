//! Task I/O programs.
//!
//! Each task is a sequence of [`TaskOp`]s interpreted by the cluster
//! simulator. The programs encode the Hadoop 0.19 data flow the paper's
//! phase analysis relies on: maps stream their block sequentially while
//! spilling sorted runs, reducers shuffle as map outputs appear, merge,
//! run the reduce function and write replicated output — producing
//! exactly the per-phase I/O mixes of the paper's §IV-A (sequential
//! reads + spill writes + shuffle in Ph1, shuffle tail in Ph2, merge +
//! sequential writes in Ph3).

use crate::job::{ClusterShape, JobSpec};

/// Global task identifier: a job's maps are `base..base + num_maps`,
/// its reduces follow (base 0 for a job alone on the cluster).
pub type TaskId = u32;

/// A logical file a task reads or writes. The cluster simulator lazily
/// maps these onto per-VM disk extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FileRef {
    /// Replica `replica` of HDFS block `block`.
    HdfsBlock {
        /// Global task id of the map reading the block — the block
        /// index itself for a job whose task ids start at 0.
        block: u32,
        /// Replica index (0 = the copy the map reads).
        replica: u8,
    },
    /// Spill run `seq` of a map task.
    Spill {
        /// Owning map task.
        task: TaskId,
        /// Spill sequence number.
        seq: u32,
    },
    /// Final merged map output of a map task.
    MapOutput {
        /// Owning map task.
        task: TaskId,
    },
    /// A reducer's accumulated shuffle data (its local copy of all map
    /// output partitions).
    ShuffleRun {
        /// Owning reduce task.
        task: TaskId,
    },
    /// A reducer's merged input run.
    MergedRun {
        /// Owning reduce task.
        task: TaskId,
    },
    /// Replica `replica` of a reducer's output.
    ReduceOutput {
        /// Owning reduce task.
        task: TaskId,
        /// Replica index (0 = local).
        replica: u8,
    },
}

impl FileRef {
    /// The task that owns the file: the reading map for an HDFS block,
    /// the writing task otherwise.
    pub fn task(&self) -> TaskId {
        match *self {
            FileRef::HdfsBlock { block, .. } => block,
            FileRef::Spill { task, .. }
            | FileRef::MapOutput { task }
            | FileRef::ShuffleRun { task }
            | FileRef::MergedRun { task }
            | FileRef::ReduceOutput { task, .. } => task,
        }
    }
}

/// One step of a task program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskOp {
    /// Windowed sequential read with per-byte CPU folded in (models
    /// readahead overlapping the user function).
    StreamRead {
        /// Source file.
        file: FileRef,
        /// Byte offset within the file.
        offset: u64,
        /// Bytes to read.
        bytes: u64,
        /// CPU nanoseconds charged per byte read.
        cpu_ns_per_byte: u64,
    },
    /// Windowed sequential write (async writeback unless `sync`).
    StreamWrite {
        /// Destination file.
        file: FileRef,
        /// Byte offset within the file.
        offset: u64,
        /// Bytes to write.
        bytes: u64,
        /// Synchronous (fsync-style) writes?
        sync: bool,
        /// CPU nanoseconds charged per byte written.
        cpu_ns_per_byte: u64,
    },
    /// Pure computation on the VM's VCPU.
    Cpu {
        /// Nanoseconds of work at full-VCPU speed.
        nanos: u64,
    },
    /// Reduce-only: fetch every map's output partition as maps finish
    /// (remote disk read + network transfer + local shuffle write). The
    /// interpreter consults the job tracker for availability.
    Shuffle,
    /// Write `bytes` with HDFS replication: a local copy plus
    /// `replicas - 1` remote copies (network + remote disk write).
    ReplicatedWrite {
        /// Destination (replica 0; others derive from it).
        file: FileRef,
        /// Bytes per replica.
        bytes: u64,
    },
}

impl TaskOp {
    /// Bytes of local disk traffic this op implies (replica fan-out and
    /// network traffic excluded) — used by accounting tests.
    pub fn local_bytes(&self) -> u64 {
        match self {
            TaskOp::StreamRead { bytes, .. } => *bytes,
            TaskOp::StreamWrite { bytes, .. } => *bytes,
            TaskOp::ReplicatedWrite { bytes, .. } => *bytes,
            _ => 0,
        }
    }
}

/// Build the program of map task `task` processing its HDFS block
/// (the file keyed by `task`, see [`FileRef::HdfsBlock`]).
///
/// Data flow (Hadoop 0.19 `MapTask`): stream the block in segments
/// sized so the in-memory sort buffer fills once per segment; after
/// each segment, spill the sorted (and combined, if enabled) buffer to
/// disk as an async sequential write. If more than one spill was
/// produced, merge them into the final map output file (read all spills
/// + write the merged file); a single spill simply becomes the output.
pub fn map_plan(job: &JobSpec, task: TaskId) -> Vec<TaskOp> {
    let w = &job.workload;
    let out_total = job.map_output_per_block();
    // Input bytes consumed per sort-buffer fill.
    let in_per_spill = if w.map_output_ratio >= 1e-9 {
        ((job.sort_buffer_bytes as f64 / w.map_output_ratio) as u64).max(1)
    } else {
        u64::MAX
    };
    let mut ops = Vec::new();
    let mut remaining_in = job.block_bytes;
    let mut in_off = 0u64;
    let mut spills = 0u32;
    while remaining_in > 0 {
        let seg_in = remaining_in.min(in_per_spill);
        ops.push(TaskOp::StreamRead {
            file: FileRef::HdfsBlock { block: task, replica: 0 },
            offset: in_off,
            bytes: seg_in,
            cpu_ns_per_byte: w.map_cpu_ns_per_byte,
        });
        in_off += seg_in;
        let seg_out = (seg_in as f64 * w.map_output_ratio) as u64;
        if seg_out > 0 {
            ops.push(TaskOp::StreamWrite {
                file: FileRef::Spill { task, seq: spills },
                offset: 0,
                bytes: seg_out,
                sync: false,
                // Sort+serialize cost of the spill.
                cpu_ns_per_byte: 2,
            });
            spills += 1;
        }
        remaining_in -= seg_in;
    }
    if spills > 1 {
        // Merge pass: read every spill, write the final output.
        for seq in 0..spills {
            let seg = out_total / spills as u64;
            ops.push(TaskOp::StreamRead {
                file: FileRef::Spill { task, seq },
                offset: 0,
                bytes: seg.max(1),
                cpu_ns_per_byte: 1,
            });
        }
        ops.push(TaskOp::StreamWrite {
            file: FileRef::MapOutput { task },
            offset: 0,
            bytes: out_total.max(1),
            sync: false,
            cpu_ns_per_byte: 1,
        });
    }
    ops
}

/// Number of spills a map task produces (mirrors [`map_plan`]).
pub fn map_spill_count(job: &JobSpec) -> u32 {
    let w = &job.workload;
    if w.map_output_ratio < 1e-9 {
        return 0;
    }
    let in_per_spill = ((job.sort_buffer_bytes as f64 / w.map_output_ratio) as u64).max(1);
    job.block_bytes.div_ceil(in_per_spill) as u32
}

/// The file a reducer fetches a map's partition from: the merged output
/// when the map had to merge, otherwise its single spill.
pub fn map_output_file(job: &JobSpec, task: TaskId) -> FileRef {
    if map_spill_count(job) > 1 {
        FileRef::MapOutput { task }
    } else {
        FileRef::Spill { task, seq: 0 }
    }
}

/// Build the program of reduce task `task`.
///
/// Data flow (`ReduceTask`): shuffle (event-driven, see
/// [`TaskOp::Shuffle`]), then a merge pass when the shuffled data
/// exceeds the sort buffer, then the reduce function streaming the
/// merged run and writing replicated output.
pub fn reduce_plan(job: &JobSpec, shape: &ClusterShape, task: TaskId) -> Vec<TaskOp> {
    let w = &job.workload;
    let shuffle_in = job.shuffle_per_reduce(shape);
    let out = job.output_per_reduce(shape);
    let mut ops = vec![TaskOp::Shuffle];
    let (reduce_src, reduce_bytes) = if shuffle_in > job.sort_buffer_bytes {
        // On-disk merge pass.
        ops.push(TaskOp::StreamRead {
            file: FileRef::ShuffleRun { task },
            offset: 0,
            bytes: shuffle_in,
            cpu_ns_per_byte: 2,
        });
        ops.push(TaskOp::StreamWrite {
            file: FileRef::MergedRun { task },
            offset: 0,
            bytes: shuffle_in,
            sync: false,
            cpu_ns_per_byte: 1,
        });
        (FileRef::MergedRun { task }, shuffle_in)
    } else {
        (FileRef::ShuffleRun { task }, shuffle_in)
    };
    if reduce_bytes > 0 {
        ops.push(TaskOp::StreamRead {
            file: reduce_src,
            offset: 0,
            bytes: reduce_bytes,
            cpu_ns_per_byte: w.reduce_cpu_ns_per_byte,
        });
    }
    if out > 0 {
        ops.push(TaskOp::ReplicatedWrite {
            file: FileRef::ReduceOutput { task, replica: 0 },
            bytes: out,
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    #[test]
    fn sort_map_single_spill_no_merge() {
        // 64 MB block × ratio 1.0 < 100 MB buffer: one spill, no merge.
        let job = JobSpec::new(WorkloadSpec::sort());
        let ops = map_plan(&job, 0);
        assert_eq!(map_spill_count(&job), 1);
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, TaskOp::StreamWrite { .. }))
                .count(),
            1
        );
        assert!(!ops
            .iter()
            .any(|o| matches!(o, TaskOp::StreamWrite { file: FileRef::MapOutput { .. }, .. })));
        assert_eq!(map_output_file(&job, 0), FileRef::Spill { task: 0, seq: 0 });
    }

    #[test]
    fn wordcount_nc_map_spills_and_merges() {
        // 64 MB × 1.7 = 108.8 MB output > 100 MB buffer: 2 spills + merge.
        let job = JobSpec::new(WorkloadSpec::wordcount_no_combiner());
        assert_eq!(map_spill_count(&job), 2);
        let ops = map_plan(&job, 3);
        let spill_writes = ops
            .iter()
            .filter(|o| matches!(o, TaskOp::StreamWrite { file: FileRef::Spill { .. }, .. }))
            .count();
        assert_eq!(spill_writes, 2);
        assert!(ops
            .iter()
            .any(|o| matches!(o, TaskOp::StreamWrite { file: FileRef::MapOutput { .. }, .. })));
        assert_eq!(map_output_file(&job, 3), FileRef::MapOutput { task: 3 });
    }

    #[test]
    fn wordcount_map_reads_whole_block() {
        let job = JobSpec::new(WorkloadSpec::wordcount());
        let ops = map_plan(&job, 0);
        let read: u64 = ops
            .iter()
            .filter_map(|o| match o {
                TaskOp::StreamRead { file: FileRef::HdfsBlock { .. }, bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(read, job.block_bytes);
    }

    #[test]
    fn map_disk_volume_tracks_ratio() {
        let sort = JobSpec::new(WorkloadSpec::sort());
        let wc = JobSpec::new(WorkloadSpec::wordcount());
        let vol = |job: &JobSpec| -> u64 {
            map_plan(job, 0).iter().map(|o| o.local_bytes()).sum()
        };
        // Sort writes its whole output; wordcount-with-combiner barely
        // writes at all.
        assert!(vol(&sort) > vol(&wc) + sort.block_bytes / 2);
    }

    #[test]
    fn reduce_plan_merges_when_big() {
        let shape = ClusterShape::default();
        let job = JobSpec::new(WorkloadSpec::sort());
        // 8 GB total / 32 reducers = 256 MB > 100 MB buffer.
        assert!(job.shuffle_per_reduce(&shape) > job.sort_buffer_bytes);
        let ops = reduce_plan(&job, &shape, 200);
        assert_eq!(ops[0], TaskOp::Shuffle);
        assert!(ops
            .iter()
            .any(|o| matches!(o, TaskOp::StreamWrite { file: FileRef::MergedRun { .. }, .. })));
        assert!(ops
            .iter()
            .any(|o| matches!(o, TaskOp::ReplicatedWrite { .. })));
    }

    #[test]
    fn reduce_plan_skips_merge_when_small() {
        let shape = ClusterShape::default();
        let job = JobSpec::new(WorkloadSpec::wordcount());
        assert!(job.shuffle_per_reduce(&shape) < job.sort_buffer_bytes);
        let ops = reduce_plan(&job, &shape, 200);
        assert!(!ops
            .iter()
            .any(|o| matches!(o, TaskOp::StreamWrite { file: FileRef::MergedRun { .. }, .. })));
    }

    #[test]
    fn plans_deterministic() {
        let job = JobSpec::default();
        assert_eq!(map_plan(&job, 7), map_plan(&job, 7));
    }
}
