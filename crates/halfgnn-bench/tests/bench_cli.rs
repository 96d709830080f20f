//! The `bench` binary rejects a bad suite list with exit code 2 before
//! any suite runs, so it writes no file.

use std::process::Command;

#[test]
fn bad_suite_lists_exit_2_and_write_nothing() {
    for (args, error) in [
        (&[][..], "bench: no suite named"),
        (&["bogus"][..], "bench: unknown suite bogus"),
        (&["tune", "bogus"][..], "bench: unknown suite bogus"),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "bench-cli-{}-{}",
            std::process::id(),
            args.join("-")
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run bench");
        let written = std::fs::read_dir(&dir).expect("read scratch dir").count();
        std::fs::remove_dir_all(&dir).ok();

        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(error), "{args:?}: {stderr}");
        assert!(
            stderr.contains("suites: exec tune fused shard replay minibatch serve one5d i8"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: printed a report");
        assert_eq!(written, 0, "{args:?}: wrote a file");
    }
}
