package resilience

import "fmt"

// Retry runs fn until it succeeds, returns a non-transient error, or
// attempts tries (values below 1 mean 1) are spent. fn receives the
// 0-based attempt number. Retries follow at once: there is no
// backoff, because the only caller is a single process's own local
// journal, where a fault either clears on the next try or persists
// past any wait (ENOSPC, EROFS) and is recovered by resume instead.
// Permanent and unclassified errors return immediately; a spent
// budget returns the last error wrapped with the attempt count
// (classification intact through the wrap).
func Retry(attempts int, fn func(attempt int) error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for a := 0; a < attempts; a++ {
		if err = fn(a); err == nil {
			return nil
		}
		if !IsTransient(err) {
			return err
		}
	}
	return fmt.Errorf("resilience: %d attempts exhausted: %w", attempts, err)
}
