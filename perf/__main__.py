import sys

from perf.run import main

sys.exit(main())
