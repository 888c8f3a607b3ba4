package obs

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Logger is a minimal leveled-free logger for observability side
// channels: degradation notices, one-time deprecation warnings. It
// exists so library code can surface rare events without importing log
// or taking a dependency on the host application's logging choices.
// A nil *Logger discards everything.
type Logger struct {
	mu   sync.Mutex
	w    io.Writer
	once map[string]bool
}

// NewLogger returns a logger writing to w (os.Stderr when nil).
func NewLogger(w io.Writer) *Logger {
	if w == nil {
		w = os.Stderr
	}
	return &Logger{w: w, once: make(map[string]bool)}
}

// Printf writes one formatted line.
func (l *Logger) Printf(format string, args ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, format+"\n", args...)
}

// Once writes the line only the first time key is seen; later calls
// with the same key are dropped. Used for warnings that would otherwise
// repeat per flow or per domain.
func (l *Logger) Once(key, format string, args ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.once[key] {
		return
	}
	l.once[key] = true
	fmt.Fprintf(l.w, format+"\n", args...)
}
