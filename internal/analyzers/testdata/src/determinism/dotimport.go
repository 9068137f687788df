// This file holds the determinism fixture's dot-import case: the
// wall-clock sources are recognized by package path, so calling them
// unqualified through `import . "time"` does not hide them. It needs
// its own file because a dot import shares the file scope.

package determinism

import . "time"

func dotImportClockPositive() Duration {
	start := Now()      // want `time.Now in a deterministic package`
	Sleep(Millisecond)  // want `time.Sleep in a deterministic package`
	return Since(start) // want `time.Since in a deterministic package`
}
